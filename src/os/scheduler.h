/**
 * @file
 * The discrete-event core that stands in for real threads and clocks.
 *
 * Everything in the simulated Android stack — the app's UI thread, its
 * async worker threads, the system_server, binder IPC latency — executes
 * as events on one SimScheduler in virtual time. This makes the
 * message-ordering phenomena the paper studies (an AsyncTask result
 * arriving after the activity restarted) exactly reproducible.
 */
#ifndef RCHDROID_OS_SCHEDULER_H
#define RCHDROID_OS_SCHEDULER_H

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "os/dispatch_order.h"
#include "os/nondet_seam.h"
#include "platform/time.h"

namespace rchdroid {

/** Opaque handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Sentinel returned when scheduling fails (never by this implementation). */
inline constexpr EventId kInvalidEventId = 0;

/**
 * One live scheduler event tied at the minimum `when`, as enumerated by
 * the NondetSeam (SimScheduler::runnableNow). Candidates are listed in
 * dispatch_order (FIFO) order, so index 0 is the event the production
 * scheduler would run next.
 */
struct RunnableEvent
{
    EventId id = kInvalidEventId;
    SimTime when = 0;
    std::uint64_t seq = 0;
    EventLabel label;
};

/**
 * A single-owner discrete-event scheduler over virtual time.
 *
 * Events at equal timestamps run in schedule order (FIFO), the named
 * os/dispatch_order.h contract Android's MessageQueue relies on and the
 * lazy-migration logic depends on for determinism.
 *
 * The pending set is an indexed binary min-heap on (when, seq) rather
 * than a std::priority_queue: the heap orders 32-byte POD keys pointing
 * into a stable slab of closures, so sifts never move a std::function,
 * the dispatch loop moves each closure out exactly once instead of
 * copying it, runUntil() peeks past cancelled tombstones, and
 * pendingEvents() counts live events.
 */
class SimScheduler
{
  public:
    SimScheduler() = default;

    SimScheduler(const SimScheduler &) = delete;
    SimScheduler &operator=(const SimScheduler &) = delete;

    /** Current virtual time. */
    SimTime now() const { return now_; }

    /**
     * Schedule fn to run after delay (>= 0) from now.
     *
     * A non-zero `causal_id` (a trace::Tracer flow id) rides in the
     * event's slab slot and is currentCausal() for the duration of the
     * callback: a Looper message enqueued from inside it inherits the
     * id, stitching a raw-scheduler hop (the binder legs) into the
     * cross-thread flow graph. Opt-in and explicit — wakeups and other
     * infrastructure events pass 0.
     */
    EventId schedule(SimDuration delay, std::function<void()> fn,
                     EventLabel label = {}, std::uint64_t causal_id = 0);

    /** Schedule fn at an absolute virtual time (>= now). */
    EventId scheduleAt(SimTime when, std::function<void()> fn,
                       EventLabel label = {}, std::uint64_t causal_id = 0);

    /** Flow id of the event whose callback is running; 0 = none. */
    std::uint64_t currentCausal() const { return current_causal_; }

    /**
     * Cancel a pending event.
     * @return true if the event existed and had not yet run.
     */
    bool cancel(EventId id);

    /** Run all events up to and including time limit. */
    void runUntil(SimTime limit);

    /** Run until no events remain (or the safety cap trips). */
    void runUntilIdle();

    /**
     * Run exactly one event if any is pending.
     * @return true if an event ran.
     */
    bool step();

    /** @name NondetSeam (model-checker control; see os/nondet_seam.h)
     * @{
     */
    /**
     * The live events tied at the minimum pending `when`, in
     * dispatch_order (FIFO) order. Empty when nothing is pending.
     * These are exactly the candidates of one scheduling choice: the
     * production scheduler always runs index 0.
     */
    std::vector<RunnableEvent> runnableNow() const;
    /**
     * Every live pending event in delivery (dispatch_order) order, not
     * just the tied head set. O(n log n); used by the model checker to
     * fingerprint the pending set canonically.
     */
    std::vector<RunnableEvent> pendingInOrder() const;
    /**
     * Dispatch one specific event from the current runnableNow() set,
     * advancing the clock to its `when`. Asserts the event is tied at
     * the minimum `when` (an explorer must not run the future early).
     * @return false when the id is unknown or cancelled.
     */
    bool runEventById(EventId id);
    /** @} */

    /** Number of live (non-cancelled) events waiting. */
    std::size_t pendingEvents() const;

    /**
     * Cancelled events still occupying heap slots. Tombstones are
     * reclaimed as the heap pops past them and purged wholesale whenever
     * the queue drains; exposed for tests and telemetry.
     */
    std::size_t cancelledTombstones() const { return cancelled_.size(); }

    /** Total events executed since construction (for tests/telemetry). */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Advance the clock with no event execution side effects. Only legal
     * when nothing is pending before the target time; used by harnesses
     * to model idle gaps precisely.
     */
    void advanceTo(SimTime when);

  private:
    /** Heap key: firing order + the slab slot holding the closure. */
    struct HeapEntry
    {
        SimTime when;
        std::uint64_t seq;
        EventId id;
        std::uint32_t slot;
    };

    /** Slab cell: the closure plus its (optional) NondetSeam label. */
    struct EventSlot
    {
        std::function<void()> fn;
        EventLabel label;
        /** Flow id threaded across this event (see schedule()); 0=none.
         *  Cleared on dispatch and cancellation so a recycled slot can
         *  never leak a stale causal edge to its next occupant. */
        std::uint64_t causal_id = 0;
    };

    /** Heap predicate: the os/dispatch_order.h (when, seq) contract. */
    static bool
    laterThan(const HeapEntry &a, const HeapEntry &b)
    {
        return dispatch_order::firesAfter({a.when, a.seq}, {b.when, b.seq});
    }

    bool runNext();
    /** Pop cancelled events off the heap top; reclaim their tombstones. */
    void dropCancelledHead();
    /** Pop the heap head and return its slab slot. */
    std::uint32_t popHeadSlot();
    /** Return a slot to the free list (or reset the slab on drain). */
    void releaseSlot(std::uint32_t slot);
    /** Take the closure out of `slot`, release it, advance and run. */
    void dispatchSlot(std::uint32_t slot, SimTime when);

    SimTime now_ = 0;
    std::uint64_t next_seq_ = 1;
    EventId next_id_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t current_causal_ = 0;
    std::vector<HeapEntry> heap_;
    /** Closure slab; slots listed in free_slots_ are vacant. */
    std::vector<EventSlot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::unordered_set<EventId> cancelled_;
};

} // namespace rchdroid

#endif // RCHDROID_OS_SCHEDULER_H
