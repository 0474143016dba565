#include "os/scheduler.h"

#include <algorithm>
#include <utility>

#include "platform/logging.h"

namespace rchdroid {

namespace {

/** Hard cap so a buggy self-rescheduling event cannot hang a test run. */
constexpr std::uint64_t kMaxEventsPerRun = 200'000'000;

} // namespace

EventId
SimScheduler::schedule(SimDuration delay, std::function<void()> fn,
                       EventLabel label, std::uint64_t causal_id)
{
    RCH_ASSERT(delay >= 0, "negative delay ", delay);
    return scheduleAt(now_ + delay, std::move(fn), label, causal_id);
}

EventId
SimScheduler::scheduleAt(SimTime when, std::function<void()> fn,
                         EventLabel label, std::uint64_t causal_id)
{
    RCH_ASSERT(when >= now_, "scheduleAt in the past: when=", when,
               " now=", now_);
    RCH_ASSERT(fn != nullptr, "null event function");
    const EventId id = next_id_++;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
        slots_[slot].fn = std::move(fn);
        slots_[slot].label = label;
        slots_[slot].causal_id = causal_id;
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(EventSlot{std::move(fn), label, causal_id});
    }
    heap_.push_back(HeapEntry{when, next_seq_++, id, slot});
    std::push_heap(heap_.begin(), heap_.end(), laterThan);
    return id;
}

bool
SimScheduler::cancel(EventId id)
{
    if (id == kInvalidEventId)
        return false;
    // Lazy cancellation: mark a tombstone; the dispatch loop skips it.
    if (id >= next_id_)
        return false;
    if (heap_.empty()) {
        // Nothing pending, so the event already ran (or was reclaimed).
        return false;
    }
    auto [it, inserted] = cancelled_.insert(id);
    (void)it;
    return inserted;
}

std::uint32_t
SimScheduler::popHeadSlot()
{
    std::uint32_t slot;
    if (heap_.size() == 1) {
        slot = heap_.front().slot;
        heap_.clear();
    } else {
        std::pop_heap(heap_.begin(), heap_.end(), laterThan);
        slot = heap_.back().slot;
        heap_.pop_back();
    }
    return slot;
}

void
SimScheduler::releaseSlot(std::uint32_t slot)
{
    if (heap_.empty()) {
        // Quiescent: drop the slab shells so long-lived schedulers do
        // not accumulate slots; capacity is retained.
        slots_.clear();
        free_slots_.clear();
    } else {
        free_slots_.push_back(slot);
    }
}

void
SimScheduler::dropCancelledHead()
{
    while (!cancelled_.empty() && !heap_.empty()) {
        auto cancelled_it = cancelled_.find(heap_.front().id);
        if (cancelled_it == cancelled_.end())
            return;
        cancelled_.erase(cancelled_it);
        const std::uint32_t slot = popHeadSlot();
        // Release the closure now: cancellation must drop whatever it
        // keeps alive, exactly like the old pop-and-discard.
        slots_[slot].fn = nullptr;
        slots_[slot].label = EventLabel{};
        slots_[slot].causal_id = 0;
        releaseSlot(slot);
    }
    if (heap_.empty()) {
        // Queue drained: any remaining tombstones name events that
        // already ran (cancel raced the dispatch); purge them.
        cancelled_.clear();
    }
}

void
SimScheduler::dispatchSlot(std::uint32_t slot, SimTime when)
{
    std::function<void()> fn = std::move(slots_[slot].fn);
    slots_[slot].label = EventLabel{};
    const std::uint64_t causal_id = slots_[slot].causal_id;
    slots_[slot].causal_id = 0;
    releaseSlot(slot);
    now_ = when;
    ++executed_;
    // Carry the flow id across the raw hop: any message a looper accepts
    // inside this callback inherits it (see Looper::enqueue).
    // Save/restore keeps nesting safe.
    const std::uint64_t previous = std::exchange(current_causal_, causal_id);
    fn();
    current_causal_ = previous;
}

bool
SimScheduler::runNext()
{
    dropCancelledHead();
    if (heap_.empty())
        return false;
    const SimTime when = heap_.front().when;
    RCH_ASSERT(when >= now_, "time went backwards");
    const std::uint32_t slot = popHeadSlot();
    dispatchSlot(slot, when);
    return true;
}

std::vector<RunnableEvent>
SimScheduler::runnableNow() const
{
    std::vector<RunnableEvent> runnable;
    if (heap_.empty())
        return runnable;
    // The head may be a tombstone (dropCancelledHead is non-const, and
    // this is a pure query), so scan for the live minimum instead.
    bool found = false;
    SimTime min_when = 0;
    for (const HeapEntry &entry : heap_) {
        if (!cancelled_.empty() &&
            cancelled_.find(entry.id) != cancelled_.end())
            continue;
        if (!found || entry.when < min_when) {
            found = true;
            min_when = entry.when;
        }
    }
    if (!found)
        return runnable;
    for (const HeapEntry &entry : heap_) {
        if (entry.when != min_when)
            continue;
        if (!cancelled_.empty() &&
            cancelled_.find(entry.id) != cancelled_.end())
            continue;
        runnable.push_back(RunnableEvent{entry.id, entry.when, entry.seq,
                                         slots_[entry.slot].label});
    }
    std::sort(runnable.begin(), runnable.end(),
              [](const RunnableEvent &a, const RunnableEvent &b) {
                  return dispatch_order::firesBefore({a.when, a.seq},
                                                     {b.when, b.seq});
              });
    return runnable;
}

std::vector<RunnableEvent>
SimScheduler::pendingInOrder() const
{
    std::vector<RunnableEvent> pending;
    pending.reserve(heap_.size());
    for (const HeapEntry &entry : heap_) {
        if (!cancelled_.empty() &&
            cancelled_.find(entry.id) != cancelled_.end())
            continue;
        pending.push_back(RunnableEvent{entry.id, entry.when, entry.seq,
                                        slots_[entry.slot].label});
    }
    std::sort(pending.begin(), pending.end(),
              [](const RunnableEvent &a, const RunnableEvent &b) {
                  return dispatch_order::firesBefore({a.when, a.seq},
                                                     {b.when, b.seq});
              });
    return pending;
}

bool
SimScheduler::runEventById(EventId id)
{
    dropCancelledHead();
    if (id == kInvalidEventId || heap_.empty())
        return false;
    if (cancelled_.find(id) != cancelled_.end())
        return false;
    auto it = std::find_if(
        heap_.begin(), heap_.end(),
        [id](const HeapEntry &entry) { return entry.id == id; });
    if (it == heap_.end())
        return false;
    RCH_ASSERT(it->when == heap_.front().when,
               "runEventById would run the future early: when=", it->when,
               " head=", heap_.front().when);
    const SimTime when = it->when;
    const std::uint32_t slot = it->slot;
    // O(n) removal + re-heapify: the seam only runs under the explorer,
    // where pending sets are tiny and wall-clock is dominated by the
    // schedule fan-out, not by one heap rebuild.
    *it = heap_.back();
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), laterThan);
    dispatchSlot(slot, when);
    return true;
}

void
SimScheduler::runUntil(SimTime limit)
{
    std::uint64_t guard = 0;
    for (;;) {
        dropCancelledHead();
        if (heap_.empty() || heap_.front().when > limit)
            break;
        if (!runNext())
            break;
        RCH_ASSERT(++guard < kMaxEventsPerRun, "event storm before ",
                   formatSimTime(limit));
    }
    if (now_ < limit)
        now_ = limit;
}

void
SimScheduler::runUntilIdle()
{
    std::uint64_t guard = 0;
    while (runNext()) {
        RCH_ASSERT(++guard < kMaxEventsPerRun, "runUntilIdle event storm");
    }
}

bool
SimScheduler::step()
{
    return runNext();
}

std::size_t
SimScheduler::pendingEvents() const
{
    if (cancelled_.empty())
        return heap_.size();
    return static_cast<std::size_t>(
        std::count_if(heap_.begin(), heap_.end(),
                      [this](const HeapEntry &entry) {
                          return cancelled_.find(entry.id) ==
                                 cancelled_.end();
                      }));
}

void
SimScheduler::advanceTo(SimTime when)
{
    RCH_ASSERT(when >= now_, "advanceTo in the past");
    dropCancelledHead();
    RCH_ASSERT(heap_.empty() || heap_.front().when >= when,
               "advanceTo would skip a pending event");
    now_ = when;
}

} // namespace rchdroid
