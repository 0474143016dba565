/**
 * @file
 * Randomized property tests for causal-id hygiene in the two payload
 * slabs the flow edges travel through: MessageQueue's message slab and
 * SimScheduler's event slab. Both recycle slots aggressively (free-list
 * reuse, wholesale reset on drain), so the property under test is that
 * a recycled slot's NEW occupant never observes the PREVIOUS occupant's
 * causal id — a stale id would stitch a flow edge onto an unrelated
 * dispatch and the critical-path walk would cross into the wrong
 * episode.
 *
 * Fixed seeds keep the tests deterministic; each run still churns
 * hundreds of enqueue/pop/remove/cancel interleavings over a handful of
 * slots, which is exactly the reuse pressure the property needs.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "os/looper.h"
#include "os/message_queue.h"
#include "os/scheduler.h"
#include "platform/tracing.h"

namespace rchdroid {
namespace {

TEST(CausalSlab, MessageQueueRecyclingNeverLeaksCausalId)
{
    std::mt19937 rng(20260808u);
    MessageQueue queue;

    struct Expected
    {
        std::uint64_t causal_id;
        const void *token;
    };
    std::map<int, Expected> pending; // what -> what we enqueued
    static const int kTokens[3] = {0, 0, 0};
    int next_what = 1;
    std::size_t popped = 0;
    std::size_t removed = 0;

    auto enqueue_one = [&](std::uint64_t causal) {
        Message msg;
        msg.callback = [] {};
        msg.when = std::uniform_int_distribution<SimTime>(0, 50)(rng);
        msg.what = next_what++;
        msg.token = &kTokens[std::uniform_int_distribution<int>(0, 2)(rng)];
        msg.tag = "m" + std::to_string(msg.what);
        msg.causal_id = causal;
        pending[msg.what] = {msg.causal_id, msg.token};
        queue.enqueue(std::move(msg));
    };

    auto check_pop = [&](const Message &msg) {
        auto it = pending.find(msg.what);
        ASSERT_NE(it, pending.end()) << "popped a removed message";
        // The property: the payload carries exactly the causal id it
        // was enqueued with — zero stays zero even when the slot's
        // previous occupant had an edge.
        EXPECT_EQ(msg.causal_id, it->second.causal_id)
            << "slot recycling leaked a causal id onto " << msg.tag;
        pending.erase(it);
        ++popped;
    };

    for (int step = 0; step < 2000; ++step) {
        const int op = std::uniform_int_distribution<int>(0, 9)(rng);
        if (op < 5) {
            // Half the inserts carry an edge, half do not: a zero-id
            // message landing in a recycled slot is the leak detector.
            const bool with_edge =
                std::uniform_int_distribution<int>(0, 1)(rng) == 1;
            enqueue_one(with_edge ? 1000u + static_cast<std::uint64_t>(
                                                next_what)
                                  : 0u);
        } else if (op < 8) {
            if (auto msg = queue.popFront())
                check_pop(*msg);
        } else if (op == 8) {
            const void *token =
                &kTokens[std::uniform_int_distribution<int>(0, 2)(rng)];
            removed += queue.removeByToken(token);
            for (auto it = pending.begin(); it != pending.end();) {
                if (it->second.token == token)
                    it = pending.erase(it);
                else
                    ++it;
            }
        } else {
            // Drain to empty now and then: the slab resets wholesale
            // and the next enqueue rebuilds it from slot 0.
            while (auto msg = queue.popFront())
                check_pop(*msg);
            EXPECT_TRUE(queue.empty());
        }
    }
    while (auto msg = queue.popFront())
        check_pop(*msg);
    EXPECT_TRUE(pending.empty());
    EXPECT_GT(popped, 100u);
    EXPECT_GT(removed, 0u);
}

TEST(CausalSlab, SchedulerSlotRecyclingNeverLeaksCurrentCausal)
{
    std::mt19937 rng(0xca05a1u);
    SimScheduler scheduler;

    // Each callback records the ambient causal id it observed; events
    // scheduled with id 0 must observe 0 even when their slab slot
    // previously held (and was cancelled out of) a causally-tagged
    // event.
    struct Observed
    {
        std::uint64_t expected;
        std::uint64_t seen = 0;
        bool ran = false;
        bool cancelled = false;
    };
    std::vector<Observed> observations;
    std::uint64_t next_causal = 1;

    for (int round = 0; round < 50; ++round) {
        std::vector<std::pair<EventId, std::size_t>> cancellable;
        const int batch = std::uniform_int_distribution<int>(3, 8)(rng);
        for (int i = 0; i < batch; ++i) {
            const bool with_edge =
                std::uniform_int_distribution<int>(0, 1)(rng) == 1;
            const std::uint64_t causal = with_edge ? next_causal++ : 0;
            const std::size_t index = observations.size();
            observations.push_back({causal});
            const EventId id = scheduler.schedule(
                std::uniform_int_distribution<SimDuration>(0, 20)(rng),
                [&observations, &scheduler, index] {
                    observations[index].ran = true;
                    observations[index].seen = scheduler.currentCausal();
                },
                EventLabel{}, causal);
            if (std::uniform_int_distribution<int>(0, 2)(rng) == 0)
                cancellable.emplace_back(id, index);
        }
        for (const auto &[id, index] : cancellable) {
            if (scheduler.cancel(id))
                observations[index].cancelled = true;
        }
        scheduler.runUntilIdle();
    }

    std::size_t ran = 0;
    std::size_t recycled = 0;
    for (const Observed &obs : observations) {
        if (obs.cancelled) {
            EXPECT_FALSE(obs.ran) << "cancelled event still ran";
            ++recycled;
            continue;
        }
        EXPECT_TRUE(obs.ran) << "live event never dispatched";
        EXPECT_EQ(obs.seen, obs.expected)
            << "recycled scheduler slot leaked a causal id";
        ++ran;
    }
    EXPECT_GT(ran, 50u);
    EXPECT_GT(recycled, 10u) << "no cancellation pressure on the slab";
}

#if RCHDROID_TRACING

TEST(CausalSlab, FlowEdgesBindEachPostToItsOwnDispatch)
{
    std::mt19937 rng(0xf10eedu);
    trace::Tracer tracer;
    trace::ScopedTracer guard(&tracer);
    tracer.beginProcess("causal-slab");

    SimScheduler scheduler;
    tracer.setClock([&scheduler] {
        Looper *looper = Looper::current();
        if (looper && looper->isDispatching())
            return looper->currentCostEnd();
        return scheduler.now();
    });
    Looper looper(scheduler, "proc.main");

    // Randomized workload: each dispatched message posts a few uniquely
    // tagged children (producer flow-starts land inside the dispatch)
    // and occasionally cancels a token's pending messages, churning the
    // message slab while edges are in flight.
    static const int kTokens[2] = {0, 0};
    int next_tag = 1;
    int budget = 400;
    std::set<std::string> dispatched;

    std::function<void(std::string)> body = [&](std::string tag) {
        dispatched.insert(tag);
        if (budget <= 0)
            return;
        const int children = std::uniform_int_distribution<int>(0, 3)(rng);
        for (int i = 0; i < children && budget > 0; ++i, --budget) {
            Message msg;
            std::string child = "m" + std::to_string(next_tag++);
            msg.callback = [&body, child] { body(child); };
            msg.tag = child;
            msg.when = scheduler.now() +
                       std::uniform_int_distribution<SimTime>(0, 30)(rng);
            msg.cost = std::uniform_int_distribution<SimDuration>(0, 5)(rng);
            msg.token =
                &kTokens[std::uniform_int_distribution<int>(0, 1)(rng)];
            looper.enqueue(std::move(msg));
        }
        if (std::uniform_int_distribution<int>(0, 9)(rng) == 0) {
            looper.removeByToken(
                &kTokens[std::uniform_int_distribution<int>(0, 1)(rng)]);
        }
    };
    // Several roots so cancellation storms cannot kill the whole run.
    for (int i = 0; i < 8; ++i)
        looper.post([&body, i] { body("root" + std::to_string(i)); });
    scheduler.runUntilIdle();
    tracer.clearClock();

    // Walk the recorded flow events: every consumer edge (bind_enclosing,
    // emitted at dispatch begin under the message's tag) must carry the
    // SAME name as its producer flow-start — a stale slab slot would
    // pair a producer's id with a different message's dispatch.
    std::map<std::uint64_t, std::string> producer_name;
    std::map<std::uint64_t, int> consumer_count;
    for (const trace::TraceEvent &event : tracer.events()) {
        if (event.phase == trace::Phase::kFlowStart) {
            ASSERT_EQ(producer_name.count(event.async_id), 0u)
                << "flow id " << event.async_id << " started twice";
            producer_name[event.async_id] = event.name;
        } else if (event.phase == trace::Phase::kFlowEnd ||
                   event.phase == trace::Phase::kFlowStep) {
            if (!event.bind_enclosing)
                continue; // producer-side step (pre-threaded chains)
            ASSERT_EQ(producer_name.count(event.async_id), 1u)
                << "consumer edge with no producer start";
            EXPECT_EQ(event.name, producer_name[event.async_id])
                << "flow edge attached to a recycled slot's new occupant";
            EXPECT_EQ(dispatched.count(event.name), 1u)
                << "consumer edge names a message that never dispatched";
            consumer_count[event.async_id]++;
        }
    }
    for (const auto &[id, count] : consumer_count)
        EXPECT_EQ(count, 1) << "flow id " << id << " consumed twice";

    // The workload must actually have exercised both paths: plenty of
    // dispatched edges and at least one cancelled producer start whose
    // id was (correctly) never consumed.
    EXPECT_GT(consumer_count.size(), 50u);
    EXPECT_GT(producer_name.size(), consumer_count.size())
        << "no cancelled message left a dangling producer start";
}

#endif // RCHDROID_TRACING

} // namespace
} // namespace rchdroid
