/**
 * @file
 * The instrumentation seam: the one way the simulated framework reports
 * what it does to the layers that watch it.
 *
 * Framework sites (os/, view/, app/, ams/, rch/) report each occurrence
 * once, through emit() or a Span, to a thread-local list of Observers.
 * The observers are:
 *  - analysis::Analyzer (race detector + lifecycle checker);
 *  - the model checker's footprint recorder (mc/footprint.h);
 *  - the tracer observer, installed by trace::ScopedTracer;
 *  - the metrics observer, installed by metrics::ScopedMetricsRegistry,
 *    which derives every counter and histogram from these events.
 * The system's event log (sim::TraceRecorder) is the other channel: it
 * keeps its own TelemetryEvent stream and republishes each event here
 * through onTelemetry().
 *
 * With no observer installed a site costs one thread-local load and a
 * branch. RCHDROID_TRACING=0 compiles the tracer and metrics observers
 * out; the seam stays for the analyzer and the model checker. It lives
 * in os/ (the lowest instrumented layer) and speaks in opaque identities
 * plus raw enum values, so os/ never depends on the layers it reports
 * about.
 */
#ifndef RCHDROID_OS_INSTRUMENTATION_H
#define RCHDROID_OS_INSTRUMENTATION_H

#include <cstdint>
#include <string>

#include "platform/compiler.h"
#include "platform/time.h"

namespace rchdroid {

class Looper;
struct Message;
struct TelemetryEvent;

namespace seam {

/** How one telemetry event moved the event log's handling episodes. */
struct EpisodeChange
{
    /** Index of the episode this event closed, or -1. */
    std::int64_t closed = -1;
    /** The closed episode was overtaken by the next change. */
    bool aborted = false;
    /** Handling time of a closed, completed episode (ms). */
    double handling_ms = 0.0;
    /** Index of the episode this event opened, or -1. */
    std::int64_t opened = -1;
};

/**
 * Receiver of framework instrumentation events. All methods default to
 * no-ops so observers override only what they consume.
 *
 * Identity conventions:
 *  - loopers are passed as Looper& (os-level type, always available);
 *  - shared objects (views, records, trees) as `const void *` plus a
 *    human-readable kind/label;
 *  - lifecycle states as their raw std::uint8_t enum values (os/ cannot
 *    see app/lifecycle.h; the analysis layer casts back).
 */
class Observer
{
  public:
    Observer() = default;
    virtual ~Observer() = default;
    // The seam holds installed observers by address.
    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    /** @name Looper (simulated thread) events
     * @{
     */
    virtual void onLooperCreated(Looper & /*looper*/) {}
    virtual void onLooperDestroyed(Looper & /*looper*/) {}
    /**
     * A hand-off from the current thread, if any (Looper::current()),
     * to `target`: a message enqueued to that looper, or, with a null
     * target, a hop that bypasses MessageQueue (a binder leg, an
     * AsyncTask start). `when` is the message's clamped due time and
     * `tag` its debug tag (the hop's name without a target): the model
     * checker uses both to recognise same-slot post collisions
     * (DESIGN.md §14). `causal_id` is the tracer's flow id riding with
     * the hand-off; the tracer observer assigns it.
     */
    virtual void onMessageSend(Looper * /*target*/, std::uint64_t /*msg_id*/,
                               SimTime /*when*/, const std::string & /*tag*/,
                               std::uint64_t & /*causal_id*/) {}
    /**
     * `looper` began dispatching `msg` at looper.now(); it is
     * Looper::current() from here to onDispatchEnd().
     */
    virtual void onDispatchBegin(Looper & /*looper*/, const Message & /*msg*/)
    {}
    /** The in-flight dispatch on `looper` completed (its cost window
     *  ends at looper.currentCostEnd()). */
    virtual void onDispatchEnd(Looper & /*looper*/) {}
    /** @} */

    /**
     * A framework-level synchronisation barrier on `scope` (e.g. the
     * shadow GC collecting an instance, or a coin flip handing the
     * foreground over): orders everything the current thread did before
     * the barrier with everything any thread does after its next
     * barrier on the same scope.
     */
    virtual void onSyncBarrier(const void * /*scope*/, const char * /*label*/)
    {}

    /**
     * A read or write of shared framework state (a view property, the
     * view-tree map, an activity record). Accesses made outside any
     * simulated thread come from the test harness, which is outside the
     * concurrency model.
     */
    virtual void onSharedAccess(const void * /*object*/, const char * /*kind*/,
                                const std::string & /*label*/,
                                bool /*is_write*/) {}

    /** `object` was destructed; any tracked access history is stale. */
    virtual void onObjectGone(const void * /*object*/) {}

    /** @name Activity lifecycle events
     * @{
     */
    /**
     * An activity is about to transition `from` → `to` (raw
     * LifecycleState values). Reported before validity is enforced so a
     * checker observes illegal attempts too. `scope` groups activities
     * of one process (the hosting ActivityThread), null for bare test
     * instances.
     */
    virtual void onLifecycleTransition(
        const void * /*activity*/, const void * /*scope*/,
        const std::string & /*component*/, std::uint64_t /*instance_id*/,
        std::uint8_t /*from*/, std::uint8_t /*to*/) {}
    /** An activity instance was destructed. */
    virtual void onActivityGone(const void * /*activity*/) {}
    /** @} */

    /**
     * A mutation was attempted on a view whose tree is already
     * destroyed. Whether this is a simulated app bug (the crash
     * scenario under study, absorbed by the crash guard) or the
     * framework violating its own protocol is decided by the receiver
     * from the app-code scope events below.
     */
    virtual void onDestroyedViewMutation(const void * /*view*/,
                                         const char * /*kind*/,
                                         const std::string & /*label*/) {}

    /** @name App-code scope (ActivityThread crash guard)
     * @{
     */
    virtual void onAppCodeBegin() {}
    virtual void onAppCodeEnd() {}
    /** @} */

    /** @name Framework phases (see Span)
     * @{
     */
    /** A named phase began on the current thread; `cat` is static. */
    virtual void onSpanBegin(const char * /*name*/,
                             const std::string & /*arg*/,
                             const char * /*cat*/) {}
    /** The innermost open phase ended. */
    virtual void onSpanEnd() {}
    /** @} */

    /**
     * The system's event log recorded `event`; `episodes` says which
     * handling episode it closed or opened (sim::TraceRecorder).
     */
    virtual void onTelemetry(const TelemetryEvent & /*event*/,
                             const EpisodeChange & /*episodes*/) {}

    /** @name RCH mechanism events with no telemetry kind of their own
     * @{
     */
    /** A foreground instance entered the shadow state on a change. */
    virtual void onShadowEntered() {}
    /** An essence view map was built between a sunny and a shadow. */
    virtual void onViewMapBuilt(std::uint64_t /*wired*/,
                                std::uint64_t /*unmatched*/) {}
    /** A shadow-GC check decided: collect, else keep (young or frequent). */
    virtual void onShadowGcCheck(bool /*collect*/, bool /*young*/) {}
    /** A view of `type` was lazily migrated; `new_batch` when it opened
     *  the dispatch's migration batch. */
    virtual void onViewMigrated(const char * /*type*/, bool /*new_batch*/) {}
    /** @} */

    /** The next observer on this thread (install order, newest first). */
    Observer *next() const { return next_; }

  private:
    friend void install(Observer *observer);
    friend void remove(Observer *observer);

    Observer *next_ = nullptr;
};

namespace detail {
/** Head of the installed observers, or null. Use observers(). */
extern thread_local Observer *g_head;
} // namespace detail

/** The newest installed observer, or null when nothing observes. */
RCHDROID_NO_SANITIZE_NULL inline Observer *
observers()
{
    return detail::g_head;
}

/**
 * Install `observer` on this thread. The seam is thread-local so
 * independent simulations on parallel experiment worker threads each
 * see only their own observers; one simulation is single-threaded.
 */
void install(Observer *observer);
/** Remove an installed observer (any position). */
void remove(Observer *observer);

/**
 * Report one event to every installed observer:
 * `seam::emit(&Observer::onObjectGone, this)`. One thread-local load
 * and a branch when nothing observes; arguments are evaluated either
 * way, so sites with costly arguments check observers() first.
 */
template <typename... Params, typename... Args>
inline void
emit(void (Observer::*event)(Params...), Args &&...args)
{
    for (Observer *o = observers(); o; o = o->next())
        (o->*event)(args...);
}

/** RAII install/remove of one observer. */
class Scoped
{
  public:
    explicit Scoped(Observer &observer) : observer_(observer)
    {
        install(&observer_);
    }
    ~Scoped() { remove(&observer_); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    Observer &observer_;
};

/**
 * A framework phase covering the rest of the enclosing block: the
 * tracer draws it as a span on the current lane. The end is reported
 * only when the begin was.
 */
class Span
{
  public:
    Span(const char *name, const std::string &arg, const char *cat)
        : active_(observers() != nullptr)
    {
        if (active_)
            emit(&Observer::onSpanBegin, name, arg, cat);
    }
    ~Span()
    {
        if (active_)
            emit(&Observer::onSpanEnd);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_;
};

} // namespace seam
} // namespace rchdroid

#endif // RCHDROID_OS_INSTRUMENTATION_H
