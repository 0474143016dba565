#include "analysis/analyzer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "os/message_queue.h"

namespace rchdroid::analysis {

Analyzer::Analyzer(AnalyzerOptions options)
    : options_(options),
      races_(sink_, context_),
      lifecycle_(sink_, context_)
{
    sink_.setAbortOnViolation(options_.abort_on_violation);
    sink_.setTimelineSnapshotter([this] {
        return std::vector<std::string>(timeline_.begin(), timeline_.end());
    });
}

void
Analyzer::noteTimeline(std::string line)
{
    if (options_.timeline_capacity == 0)
        return;
    if (timeline_.size() >= options_.timeline_capacity)
        timeline_.pop_front();
    timeline_.push_back(std::move(line));
}

std::string
Analyzer::summary() const
{
    std::ostringstream os;
    os << sink_.totalCount() << " violation(s): "
       << sink_.countOf(ViolationKind::DataRace) << " race(s), "
       << sink_.countOf(ViolationKind::LifecycleTransition) +
              sink_.countOf(ViolationKind::LifecycleInvariant)
       << " lifecycle, "
       << sink_.countOf(ViolationKind::DestroyedViewMutation)
       << " destroyed-view; "
       << races_.accessesChecked() << " access(es) and "
       << lifecycle_.transitionsChecked() << " transition(s) checked";
    return os.str();
}

void
Analyzer::onLooperCreated(Looper &looper)
{
    if (options_.race_detector)
        races_.onLooperCreated(looper);
}

void
Analyzer::onLooperDestroyed(Looper &looper)
{
    if (options_.race_detector)
        races_.onLooperDestroyed(looper);
}

void
Analyzer::onMessageSend(Looper *target, std::uint64_t msg_id, SimTime,
                        const std::string &, std::uint64_t &)
{
    // Hops that bypass a message queue order nothing by themselves: the
    // message they finally enqueue is the edge.
    if (target && options_.race_detector)
        races_.onMessageSend(*target, msg_id);
}

void
Analyzer::onDispatchBegin(Looper &looper, const Message &msg)
{
    context_.pushDispatch(looper, msg.analysis_id, msg.tag);
    if (options_.race_detector)
        races_.onDispatchBegin(looper, msg.analysis_id);
    std::ostringstream os;
    os << formatSimTime(looper.now()) << " " << looper.name() << " #"
       << msg.analysis_id;
    if (!msg.tag.empty())
        os << " '" << msg.tag << "'";
    noteTimeline(os.str());
}

void
Analyzer::onDispatchEnd(Looper &looper)
{
    (void)looper;
    context_.popDispatch();
}

void
Analyzer::onSyncBarrier(const void *scope, const char *label)
{
    if (options_.race_detector)
        races_.onSyncBarrier(scope, label);
    std::ostringstream os;
    os << formatSimTime(context_.now()) << " barrier '" << label << "'";
    noteTimeline(os.str());
}

void
Analyzer::onSharedAccess(const void *object, const char *kind,
                         const std::string &label, bool is_write)
{
    if (options_.race_detector)
        races_.onSharedAccess(object, kind, label, is_write);
}

void
Analyzer::onObjectGone(const void *object)
{
    if (options_.race_detector)
        races_.onObjectGone(object);
}

void
Analyzer::onLifecycleTransition(const void *activity, const void *scope,
                                const std::string &component,
                                std::uint64_t instance_id, std::uint8_t from,
                                std::uint8_t to)
{
    const auto from_state = static_cast<LifecycleState>(from);
    const auto to_state = static_cast<LifecycleState>(to);
    std::ostringstream os;
    os << formatSimTime(context_.now()) << " " << component << "#"
       << instance_id << " " << lifecycleStateName(from_state) << " -> "
       << lifecycleStateName(to_state);
    noteTimeline(os.str());
    if (options_.lifecycle_checker)
        lifecycle_.onTransition(activity, scope, component, instance_id,
                                from_state, to_state);
}

void
Analyzer::onActivityGone(const void *activity)
{
    if (options_.lifecycle_checker)
        lifecycle_.onActivityGone(activity);
}

void
Analyzer::onDestroyedViewMutation(const void *view, const char *kind,
                                  const std::string &label)
{
    if (options_.lifecycle_checker)
        lifecycle_.onDestroyedViewMutation(view, kind, label);
}

void
Analyzer::onAppCodeBegin()
{
    context_.enterAppCode();
}

void
Analyzer::onAppCodeEnd()
{
    context_.exitAppCode();
}

namespace {

/** -1 unset (or unrecognised), 0 forced off, 1 forced on. */
int
envTristate(const char *name)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return -1;
    for (const char *off : {"0", "false", "off", "no"}) {
        if (std::strcmp(value, off) == 0)
            return 0;
    }
    for (const char *on : {"1", "true", "on", "yes"}) {
        if (std::strcmp(value, on) == 0)
            return 1;
    }
    std::fprintf(stderr,
                 "%s=%s not understood (use 1/true/on/yes or "
                 "0/false/off/no); ignored\n",
                 name, value);
    return -1;
}

} // namespace

ScopedAnalyzer::ScopedAnalyzer(AnalyzerOptions options) : analyzer_(options)
{
    for (const seam::Observer *o = seam::observers(); o; o = o->next()) {
        if (dynamic_cast<const Analyzer *>(o))
            return; // the earlier installation wins
    }
    guard_.emplace(analyzer_);
}

bool
analysisEnabledByDefault()
{
    const int forced = envTristate("RCHDROID_ANALYSIS");
    if (forced >= 0)
        return forced == 1;
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

bool
analysisAbortByDefault()
{
    return envTristate("RCHDROID_ANALYSIS_ABORT") == 1;
}

AnalyzerOptions
optionsFromEnv()
{
    AnalyzerOptions options;
    options.abort_on_violation = analysisAbortByDefault();
    return options;
}

CheckMode::CheckMode(int &argc, char **argv)
{
    int out = 1;
    bool found = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--check") == 0) {
            found = true;
            continue;
        }
        argv[out++] = argv[i];
    }
    if (found) {
        argc = out;
        argv[argc] = nullptr;
        AnalyzerOptions options = optionsFromEnv();
        // --check reports at exit rather than aborting mid-run unless
        // the environment explicitly asks for abort.
        guard_.emplace(options);
    }
}

int
CheckMode::finish() const
{
    if (!guard_)
        return 0;
    const Analyzer &analyzer = guard_->analyzer();
    std::printf("analysis: %s\n", analyzer.summary().c_str());
    for (const Violation &violation : analyzer.sink().violations())
        std::printf("%s\n", violation.toString().c_str());
    return analyzer.sink().totalCount() == 0 ? 0 : 1;
}

} // namespace rchdroid::analysis
