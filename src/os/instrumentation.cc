#include "os/instrumentation.h"

#include <vector>

#include "os/looper.h"
#include "platform/metrics.h"
#include "platform/telemetry.h"
#include "platform/tracing.h"

namespace rchdroid {
namespace seam {

namespace detail {
thread_local Observer *g_head = nullptr;
} // namespace detail

RCHDROID_NO_SANITIZE_NULL void
install(Observer *observer)
{
    observer->next_ = detail::g_head;
    detail::g_head = observer;
}

RCHDROID_NO_SANITIZE_NULL void
remove(Observer *observer)
{
    for (Observer **link = &detail::g_head; *link; link = &(*link)->next_) {
        if (*link == observer) {
            *link = observer->next_;
            observer->next_ = nullptr;
            return;
        }
    }
}

namespace {

#if RCHDROID_TRACING

using metrics::Counter;
using metrics::Histogram;

const std::string kPost = "post";
const std::string kMessage = "message";

/**
 * Draws the events into the installed trace::Tracer: a span per
 * dispatch on the looper's lane and per framework phase, flow edges
 * from each send site to its dispatch, an instant per event-log record
 * and an async "episode" span from each config change to its resume
 * (or abort): a rotation shows up as one bar across Looper lanes.
 */
class TraceObserver final : public Observer
{
  public:
    trace::Tracer *tracer = nullptr;
    /** Lane to restore when each open dispatch ends. */
    std::vector<std::uint32_t> dispatch_lanes;
    /** Lane of each open phase span (its end lands on the same lane). */
    std::vector<std::uint32_t> span_lanes;

    void
    onMessageSend(Looper *target, std::uint64_t, SimTime,
                  const std::string &tag, std::uint64_t &causal_id) override
    {
        // Producer side of the causal flow edge, at the send site inside
        // the producer's dispatch span (cost-aware clock): a fresh flow,
        // or a step when the producer threads an existing chain itself
        // (AsyncTask). Outside any dispatch no edge starts; a message
        // posted from a raw scheduler hop already inherited the hop's id
        // (Looper::enqueue).
        Looper *producer = Looper::current();
        if (producer == nullptr || !producer->isDispatching())
            return;
        const bool fresh = causal_id == 0;
        if (fresh)
            causal_id = tracer->newFlowId();
        tracer->flowAt(fresh ? trace::Phase::kFlowStart
                             : trace::Phase::kFlowStep,
                       tracer->currentLane(), tracer->now(), causal_id,
                       target && tag.empty() ? kPost : tag,
                       /*bind_enclosing=*/false);
    }

    void
    onDispatchBegin(Looper &looper, const Message &msg) override
    {
        // The B lands at the dispatch start; phase spans inside the
        // callback stamp themselves with the cost-aware clock, so they
        // nest inside [start, cost end] with real widths.
        dispatch_lanes.push_back(tracer->currentLane());
        const std::uint32_t lane = tracer->laneId(looper.name());
        tracer->setCurrentLane(lane);
        const std::string &name = msg.tag.empty() ? kMessage : msg.tag;
        tracer->beginOnAt(lane, looper.now(), name, "dispatch");
        // Consumer side of the causal edge: bound to the dispatch span
        // just opened, at its begin, so the profiler reads queue wait
        // as (consumer span begin - producer flow ts).
        if (msg.causal_id != 0) {
            tracer->flowAt(msg.causal_continues ? trace::Phase::kFlowStep
                                                : trace::Phase::kFlowEnd,
                           lane, looper.now(), msg.causal_id, name,
                           /*bind_enclosing=*/true);
        }
    }

    void
    onDispatchEnd(Looper &looper) override
    {
        if (dispatch_lanes.empty())
            return; // began before this tracer was installed
        tracer->endOnAt(tracer->currentLane(), looper.currentCostEnd());
        tracer->setCurrentLane(dispatch_lanes.back());
        dispatch_lanes.pop_back();
    }

    void
    onSpanBegin(const char *name, const std::string &arg,
                const char *cat) override
    {
        span_lanes.push_back(tracer->currentLane());
        tracer->beginOnAt(span_lanes.back(), tracer->now(), name, cat, arg);
    }

    void
    onSpanEnd() override
    {
        if (span_lanes.empty())
            return;
        tracer->endOnAt(span_lanes.back(), tracer->now());
        span_lanes.pop_back();
    }

    void
    onTelemetry(const TelemetryEvent &event,
                const EpisodeChange &episodes) override
    {
        // Instants use the cost-aware clock so they sit inside whatever
        // span is open on the lane; the episode endpoints use the
        // event's semantic time instead.
        tracer->instant(event.kind.str(), event.detail);
        if (episodes.closed >= 0) {
            tracer->asyncEnd("episode",
                             static_cast<std::uint64_t>(episodes.closed),
                             event.time, episodes.aborted ? "aborted" : "");
        }
        if (episodes.opened >= 0) {
            tracer->asyncBegin("episode",
                               static_cast<std::uint64_t>(episodes.opened),
                               "rch.episode", event.time, event.detail);
        }
    }
};

/**
 * Derives every registry counter and histogram from the events: ATMS
 * and app counters from event-log kinds, handling time from episode
 * changes, looper histograms from sends and dispatches.
 */
class MetricsObserver final : public Observer
{
  public:
    metrics::MetricsRegistry *registry = nullptr;

    void
    onMessageSend(Looper *target, std::uint64_t, SimTime,
                  const std::string &, std::uint64_t &) override
    {
        // Depth the queue reaches with this message in it.
        if (target)
            registry->observe(Histogram::kQueueDepth,
                              static_cast<double>(target->queuedMessages()) +
                                  1.0);
    }

    void
    onDispatchBegin(Looper &looper, const Message &msg) override
    {
        registry->add(Counter::kMessagesDispatched);
        registry->observe(Histogram::kDispatchLatencyUs,
                          toMicrosF(looper.now() - msg.when));
    }

    void
    onDispatchEnd(Looper &looper) override
    {
        registry->observe(Histogram::kDispatchCostUs,
                          toMicrosF(looper.currentCostEnd() - looper.now()));
    }

    void
    onTelemetry(const TelemetryEvent &event,
                const EpisodeChange &episodes) override
    {
        if (event.kind == kinds::kAtmsConfigChange)
            registry->add(Counter::kConfigChanges);
        else if (event.kind == kinds::kAtmsRelaunch)
            registry->add(Counter::kRelaunches);
        else if (event.kind == kinds::kAtmsCoinFlip)
            registry->add(Counter::kCoinFlipHit);
        else if (event.kind == kinds::kAtmsSunnyCreate)
            registry->add(Counter::kCoinFlipMiss);
        else if (event.kind == kinds::kAppCrash)
            registry->add(Counter::kAppCrashes);
        if (episodes.closed < 0)
            return;
        if (episodes.aborted) {
            registry->add(Counter::kEpisodesAborted);
        } else {
            registry->add(Counter::kEpisodesCompleted);
            registry->observe(Histogram::kHandlingMs,
                              episodes.handling_ms);
        }
    }

    void
    onShadowEntered() override
    {
        registry->add(Counter::kShadowEntered);
    }

    void
    onViewMapBuilt(std::uint64_t wired, std::uint64_t unmatched) override
    {
        registry->add(Counter::kMapWired, wired);
        registry->add(Counter::kMapUnmatched, unmatched);
        registry->observe(Histogram::kMappedViewsPerBuild,
                          static_cast<double>(wired));
    }

    void
    onShadowGcCheck(bool collect, bool young) override
    {
        registry->add(collect ? Counter::kGcCollected
                      : young ? Counter::kGcKeptYoung
                              : Counter::kGcKeptFrequent);
    }

    void
    onViewMigrated(const char *type, bool new_batch) override
    {
        if (new_batch)
            registry->add(Counter::kMigrateBatches);
        // Which view types the lazy policy actually touches (Table 1 is
        // priced per typed attribute set, so the type mix matters).
        registry->addLabeled(Counter::kViewsMigrated, type);
    }
};

/** Install `observer` while `slot` points somewhere, remove it when it
 *  stops; the Scoped* installers below repoint it. */
template <typename Target>
void
repoint(Observer &observer, Target *&slot, Target *target)
{
    if (target && !slot)
        install(&observer);
    else if (!target && slot)
        remove(&observer);
    slot = target;
}

#endif // RCHDROID_TRACING

} // namespace
} // namespace seam

namespace trace {

#if RCHDROID_TRACING
namespace {
thread_local seam::TraceObserver t_trace_observer;
} // namespace
#endif

void
ScopedTracer::attach(Tracer *tracer)
{
    Tracer::setCurrent(tracer);
#if RCHDROID_TRACING
    seam::TraceObserver &observer = t_trace_observer;
    seam::repoint(observer, observer.tracer, tracer);
    observer.dispatch_lanes.clear();
    observer.span_lanes.clear();
#endif
}

} // namespace trace

namespace metrics {

#if RCHDROID_TRACING
namespace {
thread_local seam::MetricsObserver t_metrics_observer;
} // namespace
#endif

void
ScopedMetricsRegistry::attach(MetricsRegistry *registry)
{
    MetricsRegistry::setCurrent(registry);
#if RCHDROID_TRACING
    seam::repoint(t_metrics_observer, t_metrics_observer.registry, registry);
#endif
}

} // namespace metrics
} // namespace rchdroid
