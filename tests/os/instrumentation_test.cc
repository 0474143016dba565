/**
 * @file
 * The instrumentation seam: observer install order and removal, the
 * Span phase guard, and what the tracer and metrics observers derive
 * from the events (flow edges at send sites, counters from the event
 * log, nested Scoped* installs feeding only the innermost target).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "os/instrumentation.h"
#include "os/looper.h"
#include "platform/metrics.h"
#include "platform/tracing.h"
#include "sim/trace.h"

namespace rchdroid {
namespace {

/** Records which observer saw each barrier, in call order. */
class Tagger final : public seam::Observer
{
  public:
    Tagger(std::string name, std::vector<std::string> &log)
        : name_(std::move(name)), log_(log)
    {
    }

    void
    onSyncBarrier(const void *, const char *) override
    {
        log_.push_back(name_);
    }

  private:
    std::string name_;
    std::vector<std::string> &log_;
};

TEST(Seam, ObserversSeeEventsNewestFirstAndLeaveFromAnyPosition)
{
    std::vector<std::string> log;
    Tagger a("a", log), b("b", log), c("c", log);
    EXPECT_EQ(seam::observers(), nullptr);
    seam::emit(&seam::Observer::onSyncBarrier, nullptr, "nobody");
    {
        seam::Scoped guard_a(a);
        seam::Scoped guard_b(b);
        seam::install(&c);
        seam::emit(&seam::Observer::onSyncBarrier, nullptr, "all");
        seam::remove(&b);
        seam::emit(&seam::Observer::onSyncBarrier, nullptr, "a and c");
        seam::remove(&c);
        seam::install(&b); // re-installed for its guard to remove
    }
    EXPECT_EQ(seam::observers(), nullptr);
    EXPECT_EQ(log, (std::vector<std::string>{"c", "b", "a", "c", "a"}));
}

#if RCHDROID_TRACING

TEST(Seam, SpanIsRaiiAndNullSafe)
{
    // Nothing installed: the span is a silent no-op.
    {
        seam::Span span("ghost", {}, "sim");
    }

    trace::Tracer tracer;
    SimTime now = 5;
    tracer.setClock([&now] { return now; });
    {
        trace::ScopedTracer install(&tracer);
        seam::Span span("rch.coinFlip", "app/.Main", "rch");
        // The end lands on the span's lane even if the lane moved.
        tracer.setCurrentLane(tracer.laneId("elsewhere"));
        now = 17;
    }
    ASSERT_EQ(tracer.eventCount(), 2u);
    EXPECT_EQ(tracer.events()[0].phase, trace::Phase::kBegin);
    EXPECT_EQ(tracer.events()[0].ts, 5);
    EXPECT_EQ(tracer.events()[0].arg, "app/.Main");
    EXPECT_EQ(tracer.events()[1].phase, trace::Phase::kEnd);
    EXPECT_EQ(tracer.events()[1].ts, 17);
    EXPECT_EQ(tracer.events()[1].lane, tracer.events()[0].lane);
    EXPECT_EQ(trace::Tracer::current(), nullptr);
    EXPECT_EQ(seam::observers(), nullptr);
}

TEST(Seam, NestedTracerReplacesTheOuterOne)
{
    trace::Tracer outer, inner;
    {
        trace::ScopedTracer outer_guard(&outer);
        {
            trace::ScopedTracer inner_guard(&inner);
            EXPECT_EQ(trace::Tracer::current(), &inner);
            seam::Span span("inner", {}, "sim");
        }
        EXPECT_EQ(trace::Tracer::current(), &outer);
        seam::Span span("outer", {}, "sim");
    }
    EXPECT_EQ(inner.eventCount(), 2u);
    ASSERT_EQ(outer.eventCount(), 2u);
    EXPECT_EQ(outer.events()[0].name, "outer");
}

TEST(Seam, SendsStartFlowsOnlyInsideADispatch)
{
    trace::Tracer tracer;
    trace::ScopedTracer guard(&tracer);
    SimScheduler scheduler;
    Looper looper(scheduler, "proc.main");
    static const std::string kBinder = "binder";
    std::uint64_t hop = 0;

    // Outside any dispatch: no edge starts, neither for a post nor a hop.
    looper.post([&] {
        // Inside the dispatch: an untagged post gets a flow named
        // "post", a queue-bypassing hop a flow named after itself.
        looper.post([] {});
        seam::emit(&seam::Observer::onMessageSend, nullptr, 0,
                   scheduler.now(), kBinder, hop);
    });
    seam::emit(&seam::Observer::onMessageSend, nullptr, 0, scheduler.now(),
               kBinder, hop);
    EXPECT_EQ(hop, 0u);
    scheduler.runUntilIdle();

    std::vector<std::string> starts;
    int consumed = 0;
    for (const trace::TraceEvent &event : tracer.events()) {
        if (event.phase == trace::Phase::kFlowStart)
            starts.push_back(event.name);
        if (event.phase == trace::Phase::kFlowEnd && event.bind_enclosing)
            ++consumed;
    }
    EXPECT_EQ(starts, (std::vector<std::string>{"post", "binder"}));
    EXPECT_NE(hop, 0u);
    EXPECT_EQ(consumed, 1); // the post's dispatch closes its edge
}

TelemetryEvent
event(SimTime t, TelemetryKind kind)
{
    TelemetryEvent e;
    e.time = t;
    e.kind = kind;
    return e;
}

TEST(Seam, RegistryCountsWhatTheEventLogRecords)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    sim::TraceRecorder log;
    log.record(event(milliseconds(0), kinds::kAtmsConfigChange));
    log.record(event(milliseconds(5), kinds::kAtmsConfigChange)); // aborts
    log.record(event(milliseconds(9), kinds::kAtmsCoinFlip));
    log.record(event(milliseconds(12), kinds::kAtmsActivityResumed));
    log.record(event(milliseconds(13), kinds::kAtmsActivityResumed));
    log.record(event(milliseconds(20), kinds::kAppCrash));

    using metrics::Counter;
    EXPECT_EQ(registry.counter(Counter::kConfigChanges), 2u);
    EXPECT_EQ(registry.counter(Counter::kCoinFlipHit), 1u);
    EXPECT_EQ(registry.counter(Counter::kAppCrashes), 1u);
    EXPECT_EQ(registry.counter(Counter::kEpisodesAborted), 1u);
    EXPECT_EQ(registry.counter(Counter::kEpisodesCompleted), 1u);
    const auto &handling =
        registry.histogram(metrics::Histogram::kHandlingMs);
    ASSERT_EQ(handling.count(), 1u);
    EXPECT_DOUBLE_EQ(handling.max(), 7.0);
}

TEST(Seam, RegistryDerivesLooperHistogramsFromDispatches)
{
    metrics::MetricsRegistry registry;
    metrics::ScopedMetricsRegistry guard(&registry);
    SimScheduler scheduler;
    Looper looper(scheduler, "t");
    looper.post([] {}, microseconds(3), microseconds(40));
    looper.post([] {}, 0, microseconds(10));
    scheduler.runUntilIdle();

    using metrics::Histogram;
    EXPECT_EQ(registry.counter(metrics::Counter::kMessagesDispatched), 2u);
    EXPECT_EQ(registry.histogram(Histogram::kQueueDepth).max(), 2.0);
    EXPECT_EQ(registry.histogram(Histogram::kDispatchCostUs).sum(), 50.0);
    // The delayed post waits behind the first one's 10 us window.
    EXPECT_EQ(registry.histogram(Histogram::kDispatchLatencyUs).max(), 7.0);
}

#endif // RCHDROID_TRACING

} // namespace
} // namespace rchdroid
