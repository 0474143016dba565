/**
 * @file
 * Span-based tracer exporting Chrome trace-event JSON, the simulator's
 * answer to atrace/Perfetto.
 *
 * Model:
 *  - one Tracer per diagnostic run, installed on the simulation thread
 *    with ScopedTracer, which also installs the tracer's observer on the
 *    instrumentation seam (os/instrumentation.h) — the framework never
 *    calls the tracer itself;
 *  - a "process" (pid) per AndroidSystem instance — sequential systems
 *    in one binary (e.g. quickstart runs Restart then RchDroid) restart
 *    sim time at zero, and separate pids keep every lane's timestamps
 *    monotonic;
 *  - a "thread" lane (tid) per Looper, plus a default lane for harness
 *    code running outside any dispatch;
 *  - B/E duration events, i instants, b/e async spans that follow a
 *    config-change episode across Looper hops, and s/t/f flow events
 *    stitching cross-thread causal edges (post site -> dispatch begin)
 *    that the src/profiling/ critical-path analyzer walks backwards.
 *
 * Timestamps are virtual nanoseconds, serialised as microseconds the
 * way chrome://tracing and Perfetto expect. Sim time does not advance
 * while a callback runs, so the tracer reads a *cost-aware* clock
 * (installed by AndroidSystem): inside a dispatch, "now" is the current
 * message's accumulated-cost end, which gives nested spans real
 * durations instead of zero-width ticks.
 *
 * RCHDROID_TRACING=0 compiles the seam's tracer observer out; the
 * classes here stay compiled so the shell/example plumbing builds in
 * every configuration.
 */
#ifndef RCHDROID_PLATFORM_TRACING_H
#define RCHDROID_PLATFORM_TRACING_H

#ifndef RCHDROID_TRACING
#define RCHDROID_TRACING 1
#endif

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "platform/compiler.h"
#include "platform/time.h"

namespace rchdroid::trace {

/** Chrome trace-event phases we emit. */
enum class Phase : char {
    kBegin = 'B',
    kEnd = 'E',
    kInstant = 'i',
    kAsyncBegin = 'b',
    kAsyncEnd = 'e',
    kFlowStart = 's',
    kFlowStep = 't',
    kFlowEnd = 'f',
};

/** One recorded event; serialised by Tracer::toChromeJson(). */
struct TraceEvent
{
    Phase phase = Phase::kInstant;
    /** Lane (process+thread pair) the event belongs to. */
    std::uint32_t lane = 0;
    /** Virtual time, nanoseconds. */
    SimTime ts = 0;
    /** Pairing id for async (b/e) and flow (s/t/f) events. */
    std::uint64_t async_id = 0;
    std::string name;
    /** Optional detail, serialised as args.detail. */
    std::string arg;
    /** Static category string ("sim", "rch", "episode", "flow", ...). */
    const char *cat = "sim";
    /**
     * Flow events only: bind to the *enclosing* slice (`"bp":"e"`).
     * Set on consumer-side steps emitted at dispatch begin, so the
     * profiler can tell an incoming edge (the message that caused this
     * dispatch) from an outgoing one (a post made during it).
     */
    bool bind_enclosing = false;
};

/**
 * Event collector + Chrome JSON exporter.
 */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Open a new trace "process" (one per AndroidSystem). Subsequent
     * laneId() calls create lanes under it; returns the pid.
     */
    std::uint32_t beginProcess(const std::string &label);

    /** Lane for `name` under the current process, created on demand. */
    std::uint32_t laneId(const std::string &name);

    std::uint32_t currentLane() const { return current_lane_; }
    void setCurrentLane(std::uint32_t lane) { current_lane_ = lane; }
    std::uint32_t currentPid() const { return current_pid_; }

    /**
     * Install the virtual-time source (cost-aware; see file comment).
     * The installer must clearClock() before dying: the tracer may
     * outlive the AndroidSystem whose scheduler the closure reads.
     */
    void setClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
    void clearClock() { clock_ = nullptr; }
    /** Current virtual time: the installed clock, or 0 without one. */
    SimTime now() const { return clock_ ? clock_() : 0; }

    /** Open a duration span on the current lane. */
    void begin(const std::string &name, const char *cat = "sim",
               std::string arg = {})
    {
        beginOnAt(current_lane_, now(), name, cat, std::move(arg));
    }
    void beginOnAt(std::uint32_t lane, SimTime ts, const std::string &name,
                   const char *cat = "sim", std::string arg = {});
    /** Close the most recent open span on the lane. */
    void end() { endOnAt(current_lane_, now()); }
    void endOnAt(std::uint32_t lane, SimTime ts);

    /** Zero-duration marker on the current lane. */
    void instant(const std::string &name, std::string arg = {})
    {
        instantAt(now(), name, std::move(arg));
    }
    void instantAt(SimTime ts, const std::string &name, std::string arg = {});

    /** Async span endpoints, paired by (cat, id) across lanes. */
    void asyncBegin(const char *cat, std::uint64_t id, const std::string &name,
                    SimTime ts, std::string arg = {});
    void asyncEnd(const char *cat, std::uint64_t id, SimTime ts,
                  std::string arg = {});

    /** @name Causal flow edges (s/t/f), walked by src/profiling/.
     *
     * A flow id names one cross-thread hand-off chain. The producer
     * emits kFlowStart at the post site (inside its dispatch span); the
     * consumer emits kFlowStep/kFlowEnd with bind_enclosing at its
     * dispatch begin. Id 0 is reserved for "no causal edge".
     * @{
     */
    std::uint64_t newFlowId() { return next_flow_id_++; }
    void flowAt(Phase phase, std::uint32_t lane, SimTime ts, std::uint64_t id,
                const std::string &name, bool bind_enclosing,
                const char *cat = "flow");
    /** @} */

    std::size_t eventCount() const { return events_.size(); }
    const std::vector<TraceEvent> &events() const { return events_; }

    /** One trace lane: a (pid, tid) pair with its display name. */
    struct Lane
    {
        std::uint32_t pid = 0;
        std::uint32_t tid = 0;
        std::string name;
    };

    /** All lanes, indexed by TraceEvent::lane (src/profiling/ input). */
    const std::vector<Lane> &lanes() const { return lanes_; }

    /**
     * Serialise as {"traceEvents": [...], "displayTimeUnit": "ms"} with
     * process_name/thread_name metadata — loadable in Perfetto and
     * chrome://tracing, validated by tools/check_trace.py.
     */
    std::string toChromeJson() const;
    /** Write toChromeJson() to a file; false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

    /** Tracer installed on this thread, or null. */
    RCHDROID_NO_SANITIZE_NULL static Tracer *current() { return current_; }

  private:
    friend class ScopedTracer;
    RCHDROID_NO_SANITIZE_NULL static void setCurrent(Tracer *tracer)
    {
        current_ = tracer;
    }

    std::vector<TraceEvent> events_;
    std::vector<Lane> lanes_;
    /** (pid, lane name) -> index into lanes_. */
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> lane_ids_;
    /** pid -> process label. */
    std::map<std::uint32_t, std::string> process_names_;
    std::function<SimTime()> clock_;
    std::uint32_t current_pid_ = 0;
    std::uint32_t current_lane_ = 0;
    std::uint32_t next_pid_ = 0;
    /** Flow ids start at 1: 0 means "no causal edge" everywhere. */
    std::uint64_t next_flow_id_ = 1;

    /**
     * Thread-local install, like Looper::current_: each parallel bench
     * worker simulates on its own thread and must not see another
     * worker's tracer.
     */
    static thread_local Tracer *current_;
};

/**
 * RAII install/restore of the thread's tracer (nestable: the previous
 * tracer is restored on destruction). attach() also points the
 * instrumentation seam's tracer observer at it; it is defined with that
 * observer in os/instrumentation.cc.
 */
class ScopedTracer
{
  public:
    explicit ScopedTracer(Tracer *tracer) : previous_(Tracer::current())
    {
        attach(tracer);
    }
    ~ScopedTracer() { attach(previous_); }

    ScopedTracer(const ScopedTracer &) = delete;
    ScopedTracer &operator=(const ScopedTracer &) = delete;

  private:
    static void attach(Tracer *tracer);

    Tracer *previous_;
};

} // namespace rchdroid::trace

#endif // RCHDROID_PLATFORM_TRACING_H
