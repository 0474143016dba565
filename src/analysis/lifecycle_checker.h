/**
 * @file
 * LifecycleChecker: validates every observed LifecycleState transition
 * against the Fig. 4 state machine (stock edges plus the RCHDroid
 * dotted edges), and enforces two cross-instance invariants:
 *
 *  1. at most one foreground instance (Resumed or Sunny — in
 *     particular at most one Sunny) per process scope at a time;
 *  2. no view mutation after Destroyed from framework code. App code is
 *     exempt: the crash-matrix scenarios *deliberately* touch destroyed
 *     views from stale callbacks — that is the app bug under study, and
 *     the crash guard absorbs it — so only the framework itself doing
 *     it is a protocol violation.
 */
#ifndef RCHDROID_ANALYSIS_LIFECYCLE_CHECKER_H
#define RCHDROID_ANALYSIS_LIFECYCLE_CHECKER_H

#include <cstdint>
#include <string>
#include <unordered_map>

#include "analysis/execution_context.h"
#include "analysis/violation.h"
#include "app/lifecycle.h"

namespace rchdroid::analysis {

/**
 * The protocol checker. Driven by the Analyzer from the seam's
 * lifecycle events; reports into the shared sink.
 */
class LifecycleChecker
{
  public:
    LifecycleChecker(ViolationSink &sink, const ExecutionContext &context)
        : sink_(sink), context_(context)
    {
    }

    /** @name Hook entry points (forwarded by the Analyzer)
     * @{
     */
    void onTransition(const void *activity, const void *scope,
                      const std::string &component,
                      std::uint64_t instance_id, LifecycleState from,
                      LifecycleState to);
    void onActivityGone(const void *activity);
    void onDestroyedViewMutation(const void *view, const char *kind,
                                 const std::string &label);
    /** @} */

    /** @name Statistics
     * @{
     */
    std::size_t transitionsChecked() const { return transitions_checked_; }
    std::size_t trackedActivities() const { return activities_.size(); }
    /** Destroyed-view touches from app code (expected crash scenarios). */
    std::size_t appDestroyedViewTouches() const
    { return app_destroyed_view_touches_; }
    /** @} */

  private:
    struct Tracked
    {
        const void *scope = nullptr;
        std::string component;
        std::uint64_t instance_id = 0;
        LifecycleState state = LifecycleState::Initial;
    };

    std::string describeInstance(const Tracked &tracked) const;

    ViolationSink &sink_;
    const ExecutionContext &context_;
    std::unordered_map<const void *, Tracked> activities_;
    std::size_t transitions_checked_ = 0;
    std::size_t app_destroyed_view_touches_ = 0;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_LIFECYCLE_CHECKER_H
