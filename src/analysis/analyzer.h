/**
 * @file
 * Analyzer: the analysis subsystem's facade — one observer on the
 * instrumentation seam (os/instrumentation.h), owning the race
 * detector, the lifecycle protocol checker, the shared ViolationSink,
 * and a ring buffer of recent events that every violation report
 * carries as a timeline.
 *
 * Installation is RAII-scoped (ScopedAnalyzer) and idempotent: a guard
 * only installs when no analyzer is installed on the thread, so a test
 * that installs its own analyzer wins over the one AndroidSystem would
 * install. By default the subsystem is on in debug builds and off in
 * release; the RCHDROID_ANALYSIS / RCHDROID_ANALYSIS_ABORT environment
 * variables override in both directions, which is how every tier-1
 * ctest run gets the checkers with abort-on-violation armed regardless
 * of build type.
 */
#ifndef RCHDROID_ANALYSIS_ANALYZER_H
#define RCHDROID_ANALYSIS_ANALYZER_H

#include <cstddef>
#include <deque>
#include <optional>
#include <string>

#include "analysis/execution_context.h"
#include "analysis/lifecycle_checker.h"
#include "analysis/race_detector.h"
#include "analysis/violation.h"
#include "os/instrumentation.h"

namespace rchdroid::analysis {

/** What the Analyzer runs and how it reacts to findings. */
struct AnalyzerOptions
{
    bool race_detector = true;
    bool lifecycle_checker = true;
    /** Panic on the first violation (how tier-1 tests run). */
    bool abort_on_violation = false;
    /** Recent-event ring attached to every report. */
    std::size_t timeline_capacity = 64;
};

/**
 * The seam observer: dispatch/lifecycle/access events fan out to the
 * enabled checkers and into the timeline ring.
 */
class Analyzer final : public seam::Observer
{
  public:
    explicit Analyzer(AnalyzerOptions options = {});

    ViolationSink &sink() { return sink_; }
    const ViolationSink &sink() const { return sink_; }
    RaceDetector &raceDetector() { return races_; }
    const RaceDetector &raceDetector() const { return races_; }
    LifecycleChecker &lifecycleChecker() { return lifecycle_; }
    const LifecycleChecker &lifecycleChecker() const { return lifecycle_; }
    const ExecutionContext &context() const { return context_; }
    const AnalyzerOptions &options() const { return options_; }

    /** One-line "N violations (x races, y lifecycle, ...)" summary. */
    std::string summary() const;

    /** @name Observer implementation
     * @{
     */
    void onLooperCreated(Looper &looper) override;
    void onLooperDestroyed(Looper &looper) override;
    void onMessageSend(Looper *target, std::uint64_t msg_id, SimTime,
                       const std::string &, std::uint64_t &) override;
    void onDispatchBegin(Looper &looper, const Message &msg) override;
    void onDispatchEnd(Looper &looper) override;
    void onSyncBarrier(const void *scope, const char *label) override;
    void onSharedAccess(const void *object, const char *kind,
                        const std::string &label, bool is_write) override;
    void onObjectGone(const void *object) override;
    void onLifecycleTransition(const void *activity, const void *scope,
                               const std::string &component,
                               std::uint64_t instance_id, std::uint8_t from,
                               std::uint8_t to) override;
    void onActivityGone(const void *activity) override;
    void onDestroyedViewMutation(const void *view, const char *kind,
                                 const std::string &label) override;
    void onAppCodeBegin() override;
    void onAppCodeEnd() override;
    /** @} */

  private:
    void noteTimeline(std::string line);

    AnalyzerOptions options_;
    ViolationSink sink_;
    ExecutionContext context_;
    RaceDetector races_;
    LifecycleChecker lifecycle_;
    std::deque<std::string> timeline_;
};

/**
 * RAII installer. Owns an Analyzer and installs it on this thread's
 * seam — unless an analyzer is already installed there, in which case
 * this guard is inert (installed() == false) and the earlier installation
 * wins. The seam is thread-local, so systems running on parallel
 * experiment workers each get their own analyzer.
 */
class ScopedAnalyzer
{
  public:
    explicit ScopedAnalyzer(AnalyzerOptions options = {});

    ScopedAnalyzer(const ScopedAnalyzer &) = delete;
    ScopedAnalyzer &operator=(const ScopedAnalyzer &) = delete;

    /** False when another analyzer was already installed. */
    bool installed() const { return guard_.has_value(); }

    /** This guard's analyzer (inert when !installed()). */
    Analyzer &analyzer() { return analyzer_; }
    const Analyzer &analyzer() const { return analyzer_; }

  private:
    Analyzer analyzer_;
    std::optional<seam::Scoped> guard_;
};

/** @name Environment-driven defaults
 * RCHDROID_ANALYSIS forces the subsystem on (1/true/on/yes) or off
 * (0/false/off/no); unset, it is on in debug builds and off in release.
 * RCHDROID_ANALYSIS_ABORT likewise controls abort-on-violation
 * (default: off). Any other value is reported on stderr and treated as
 * unset.
 * @{
 */
bool analysisEnabledByDefault();
bool analysisAbortByDefault();
/** AnalyzerOptions seeded from the environment. */
AnalyzerOptions optionsFromEnv();
/** @} */

/**
 * Opt-in checking for tools and examples: strips a `--check` flag from
 * argv and, when present, installs an analyzer for the program's
 * lifetime. Call finish() last to print the summary and get the exit
 * status.
 */
class CheckMode
{
  public:
    /** Scans argv for "--check"; removes it and arms the analyzer. */
    CheckMode(int &argc, char **argv);

    bool enabled() const { return guard_.has_value(); }

    Analyzer *analyzer()
    { return guard_ ? &guard_->analyzer() : nullptr; }

    /**
     * Print the violation summary (and each stored report).
     * @return 0 when clean or disabled, 1 when violations were found.
     */
    int finish() const;

  private:
    std::optional<ScopedAnalyzer> guard_;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_ANALYZER_H
