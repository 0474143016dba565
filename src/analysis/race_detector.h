/**
 * @file
 * RaceDetector: deterministic happens-before race detection over the
 * simulated looper model.
 *
 * Happens-before is exactly:
 *  - program order: consecutive dispatches on one looper;
 *  - message sends: enqueueing from inside a dispatch carries the
 *    sender's clock to the receiving dispatch (post, IPC legs, UI
 *    continuations all funnel through Looper::enqueue);
 *  - barriers: RCHDroid's coin flip and shadow GC fully synchronise on
 *    their ActivityThread scope.
 *
 * Virtual timestamps do NOT order accesses — two dispatches that merely
 * happen at different virtual times but have no send path between them
 * are concurrent, which is precisely the bug class (unsynchronised
 * worker↔UI sharing) a real TSan run would catch on device.
 *
 * The algorithm is FastTrack-flavoured: per-object last-write epoch plus
 * per-thread last-read epochs, checked against the accessing thread's
 * vector clock. Accesses from outside any dispatch (test harness) are
 * outside the concurrency model and ignored.
 */
#ifndef RCHDROID_ANALYSIS_RACE_DETECTOR_H
#define RCHDROID_ANALYSIS_RACE_DETECTOR_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/execution_context.h"
#include "analysis/vector_clock.h"
#include "analysis/violation.h"
#include "os/looper.h"

namespace rchdroid::analysis {

/**
 * The happens-before checker. Driven by the Analyzer from the seam's
 * looper and access events; reports DataRace violations into the shared sink.
 */
class RaceDetector
{
  public:
    RaceDetector(ViolationSink &sink, const ExecutionContext &context)
        : sink_(sink), context_(context)
    {
    }

    /** @name Hook entry points (forwarded by the Analyzer)
     * @{
     */
    void onLooperCreated(const Looper &looper);
    void onLooperDestroyed(const Looper &looper);
    void onMessageSend(const Looper &target, std::uint64_t msg_id);
    void onDispatchBegin(const Looper &looper, std::uint64_t msg_id);
    void onSyncBarrier(const void *scope, const char *label);
    void onSharedAccess(const void *object, const char *kind,
                        const std::string &label, bool is_write);
    void onObjectGone(const void *object);
    /** @} */

    /** @name Statistics (test assertions, summaries)
     * @{
     */
    std::size_t accessesChecked() const { return accesses_checked_; }
    std::size_t accessesIgnored() const { return accesses_ignored_; }
    std::size_t racesFound() const { return races_found_; }
    std::size_t trackedObjects() const { return objects_.size(); }
    std::size_t trackedThreads() const { return thread_names_.size(); }
    /** @} */

    /** The detector's vector clock for `looper` (diagnostics). */
    const VectorClock &clockOf(const Looper &looper);

  private:
    /** Context captured at one access, for the eventual report. */
    struct AccessInfo
    {
        std::string tag;
        std::uint64_t msg_id = 0;
        SimTime time = 0;
    };

    /** A (thread, clock) pair plus its report context. */
    struct Epoch
    {
        int thread = -1;
        std::uint64_t clock = 0;
        AccessInfo info;
    };

    struct ObjectState
    {
        const char *kind = "";
        std::string label;
        Epoch write;
        /** Last read per thread (few threads: linear scan). */
        std::vector<Epoch> reads;
        /** One report per object keeps a racy loop from flooding. */
        bool reported = false;
    };

    /** Dense index for `looper`, registering it on first sight. */
    int threadIndex(const Looper &looper);

    Epoch currentEpoch(int thread) const;

    /** True when `earlier` is ordered before thread `thread`'s present. */
    bool
    ordered(const Epoch &earlier, const VectorClock &current) const
    {
        return earlier.clock <= current.get(earlier.thread);
    }

    void reportRace(ObjectState &state, const Epoch &prior,
                    bool prior_is_write, const Epoch &current,
                    bool current_is_write);

    std::string describeEpoch(const Epoch &epoch, bool is_write) const;

    ViolationSink &sink_;
    const ExecutionContext &context_;

    std::unordered_map<const Looper *, int> thread_index_;
    std::vector<std::string> thread_names_;
    std::vector<VectorClock> clocks_;

    /** Clock snapshots of in-flight messages: target → msg id → clock. */
    std::unordered_map<const Looper *,
                       std::unordered_map<std::uint64_t, VectorClock>>
        pending_sends_;

    /** Accumulated clock per barrier scope. */
    std::unordered_map<const void *, VectorClock> barriers_;

    std::unordered_map<const void *, ObjectState> objects_;

    std::size_t accesses_checked_ = 0;
    std::size_t accesses_ignored_ = 0;
    std::size_t races_found_ = 0;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_RACE_DETECTOR_H
