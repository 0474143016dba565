/**
 * @file
 * rch_perfbench: the repository benchmark's driver binary.
 *
 *   rch_perfbench --workload W --seed N --seconds S --trace 0|1
 *                 [--spans-out PATH] [--describe]
 *
 * A run generates the workload's inputs from the seed (set-up), then
 * plays them for S host seconds with no Tracer or MetricsRegistry
 * installed (the measured window). The first full pass gives the
 * virtual-time metrics, which are therefore a function of the seed
 * alone. Afterwards a prefix of the pass is replayed with the tracer
 * and the metrics registry installed; its statistics digest must equal
 * the untraced one.
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics;
 * with --trace 1 it carries the per-layer metrics, taken from the
 * traced replay, from the benchmark's own host spans around its calls
 * (kept in memory and written to --spans-out at exit) and from layer
 * probes. `--describe` prints the generated inputs and exits.
 */
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "explore.h"
#include "generators.h"
#include "platform/logging.h"
#include "platform/metrics.h"
#include "platform/tracing.h"
#include "probes.h"
#include "profiling/critical_path.h"
#include "sessions.h"

namespace perfbench {
namespace {

using namespace rchdroid;

struct Args
{
    Workload workload = Workload::RestartCorpus;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool describe = false;
    std::string spans_out;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--describe") {
            args.describe = true;
        } else if (arg == "--workload" && has_value) {
            if (!parseWorkload(argv[++i], &args.workload))
                return false;
            have_workload = true;
        } else if (arg == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            args.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && has_value) {
            const std::string value = argv[++i];
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else if (arg == "--spans-out" && has_value) {
            args.spans_out = argv[++i];
        } else {
            return false;
        }
    }
    return have_workload && args.seconds > 0.0;
}

/**
 * Peak resident set of this process image, MB. Read from VmHWM: unlike
 * getrusage's ru_maxrss it is not inherited from the process that
 * forked us, so the driving script's own footprint cannot leak in.
 */
double
peakRssMb()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::atof(line + 6);
            break;
        }
    }
    std::fclose(status);
    return kib / 1024.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Virtual span durations by name, from a tracer's B/E stream. */
struct SpanVirt
{
    std::uint64_t count = 0;
    SimDuration total = 0;
    double meanMs() const { return count ? toMillisF(total) / static_cast<double>(count) : 0.0; }
};

std::map<std::string, SpanVirt>
virtualSpans(const trace::Tracer &tracer)
{
    std::map<std::uint32_t, std::vector<const trace::TraceEvent *>> open;
    std::map<std::string, SpanVirt> out;
    for (const auto &event : tracer.events()) {
        if (event.phase == trace::Phase::kBegin) {
            open[event.lane].push_back(&event);
        } else if (event.phase == trace::Phase::kEnd) {
            auto &stack = open[event.lane];
            if (stack.empty())
                continue;
            SpanVirt &span = out[stack.back()->name];
            ++span.count;
            span.total += event.ts - stack.back()->ts;
            stack.pop_back();
        }
    }
    return out;
}

class Runner
{
  public:
    Runner(const Args &args, Inputs inputs, double setup_s, double catalog_ms)
        : args_(args), in_(std::move(inputs)), setup_s_(setup_s),
          catalog_ms_(catalog_ms), mc_(in_.workload == Workload::McCatalogue)
    {
    }

    int
    run()
    {
        spans_.setEnabled(args_.trace);
        if (mc_)
            windowMc();
        else
            windowSim();
        peak_rss_mb_ = peakRssMb();
        spans_.setEnabled(false);

        if (args_.trace) {
            const Replay untraced = replayPrefix(false);
            const Replay traced = replayPrefix(true);
            checks_.expect(untraced.digest == window_digest_,
                           "untraced replay digest differs from the window's");
            checks_.expect(traced.digest == window_digest_,
                           "traced replay digest differs from the untraced run");
            trace_overhead_pct_ =
                ratio(static_cast<double>(traced.host_ns - untraced.host_ns),
                      static_cast<double>(untraced.host_ns)) * 100.0;
            spans_.setEnabled(true);
            probes_ = runProbes(in_, spans_);
            if (mc_)
                measureAnalysisShare();
            spans_.setEnabled(false);
        } else {
            const Replay traced = replayPrefix(true);
            checks_.expect(traced.digest == window_digest_,
                           "traced replay digest differs from the untraced run");
        }

        MetricMap metrics = args_.trace ? layerMetrics() : endToEndMetrics();
        printInfo();
        if (args_.trace && !args_.spans_out.empty() &&
            !spans_.writeJson(args_.spans_out, infoJson()))
            std::fprintf(stderr, "cannot write %s\n", args_.spans_out.c_str());
        printResult(metrics);
        return 0;
    }

  private:
    struct Replay
    {
        std::uint64_t digest = 0;
        std::int64_t host_ns = 0;
    };

    std::int64_t
    budgetNs() const
    {
        return static_cast<std::int64_t>(args_.seconds * 1e9);
    }

    /**
     * Play sessions, pass after pass, for `budget_ns` of host time (at
     * least one pass). The time is cut into slices of kSliceNs; host
     * metrics are medians over slices, so a burst of interference from
     * outside the process moves one slice rather than the whole result.
     * Between slices the host-speed reference is sampled, and each
     * slice is scaled by the sample taken right after it. The first
     * pass also feeds the virtual metrics and the digest.
     */
    void
    playWindow(std::int64_t budget_ns, Digest &digest)
    {
        PlayContext ctx;
        ctx.inputs = &in_;
        ctx.spans = &spans_;
        ctx.checks = &checks_;
        ctx.host_us = &slice_us_;
        const std::int64_t start = hostNs();
        std::int64_t slice_start = start;
        std::uint64_t slice_episodes = 0;
        std::uint64_t slice_events = 0;
        std::size_t index = 0;
        for (;;) {
            const bool first_pass = passes_ == 0;
            ctx.virt = first_pass ? &virt_ : nullptr;
            ctx.digest = first_pass && index < in_.traced_sessions ? &digest : nullptr;
            playSession(ctx, in_.sessions[index]);
            if (++index == in_.sessions.size()) {
                index = 0;
                ++passes_;
            }
            const std::int64_t now = hostNs();
            if (now - slice_start >= kSliceNs) {
                closeSlice(now - slice_start, ctx.episodes - slice_episodes,
                           ctx.events - slice_events);
                slice_start = hostNs();
                slice_episodes = ctx.episodes;
                slice_events = ctx.events;
            }
            if (passes_ >= 1 && now - start >= budget_ns)
                break;
        }
        if (slice_ops_.empty()) // a window shorter than one slice
            closeSlice(hostNs() - slice_start, ctx.episodes - slice_episodes,
                       ctx.events - slice_events);
        episodes_ = ctx.episodes;
    }

    void
    windowSim()
    {
        Digest digest;
        playWindow(budgetNs(), digest);
        window_digest_ = digest.value();
    }

    /** Host speed now: a reference sample over its nominal, > 1 when slow. */
    double
    sampleSpeed()
    {
        const double us = referenceUs();
        reference_.add(us);
        return us / kReferenceNominalUs;
    }

    /**
     * Close a slice of `ns` host time with its operation counts. Window
     * time (`play_ns_`, `events_`) is the sum of the closed slices.
     */
    void
    closeSlice(std::int64_t ns, std::uint64_t ops, std::uint64_t events)
    {
        play_ns_ += ns;
        events_ += events;
        const double speed = sampleSpeed();
        const double seconds = static_cast<double>(ns) / 1e9;
        slice_ops_.add(static_cast<double>(ops) / seconds * speed);
        slice_events_.add(static_cast<double>(events) / seconds * speed);
        slice_p50_.add(slice_us_.percentileUs(50) / speed);
        slice_p99_.add(slice_us_.percentileUs(99) / speed);
        slice_us_.clear();
    }

    /**
     * Exploration passes over the catalogue until kExploreShare of the
     * time is used (whole passes, at least one), then the replays in
     * playWindow for the rest of the budget, whatever the passes took.
     * The phases are kept apart so the explorer's forked processes are
     * gone before replay latencies are timed.
     */
    void
    windowMc()
    {
        const auto &catalogue = mc::scenarioCatalog();
        scenario_ms_.resize(catalogue.size());
        nominal_scenario_ms_.resize(catalogue.size());
        Digest digest;
        const std::int64_t start = hostNs();
        do {
            const bool first_pass = explorations_ == 0;
            for (std::size_t s : in_.scenario_order) {
                const double speed = sampleSpeed();
                Span span(spans_, "explore");
                const Exploration e = exploreScenario(catalogue[s], in_.mc_depth);
                explore_ns_ += e.host_ns;
                ++explorations_;
                executions_ += e.report.stats.executions;
                const double ms = static_cast<double>(e.host_ns) / 1e6;
                scenario_ms_[s].add(ms);
                nominal_scenario_ms_[s].add(ms / speed);
                checkVerdict(checks_, catalogue[s], e.report);
                if (first_pass) {
                    digestReport(digest, e.report);
                    first_reports_.push_back(e.report);
                }
            }
        } while (static_cast<double>(hostNs() - start) <
                 kExploreShare * static_cast<double>(budgetNs()));
        // Explorations per second over the per-scenario median times, so
        // one slow exploration does not decide the rate.
        double median_pass_s = 0.0;
        for (const Samples &ms : nominal_scenario_ms_)
            median_pass_s += ms.percentile(50) / 1e3;
        explore_rate_ = static_cast<double>(catalogue.size()) / median_pass_s;
        playWindow(static_cast<std::int64_t>((1.0 - kExploreShare) *
                                             static_cast<double>(budgetNs())),
                   digest);
        window_digest_ = digest.value();
    }

    /**
     * Replay the traced prefix: the first exploration pass (mc) and the
     * first `traced_sessions` sessions, optionally under the tracer and
     * the metrics registry.
     */
    Replay
    replayPrefix(bool traced)
    {
        std::optional<trace::ScopedTracer> tracer_guard;
        std::optional<metrics::ScopedMetricsRegistry> registry_guard;
        if (traced) {
            tracer_ = std::make_unique<trace::Tracer>();
            registry_ = std::make_unique<metrics::MetricsRegistry>();
            tracer_guard.emplace(tracer_.get());
            registry_guard.emplace(registry_.get());
            layers_ = LayerTotals{};
        }
        Digest digest;
        const std::int64_t start = hostNs();
        if (mc_) {
            for (std::size_t s : in_.scenario_order)
                digestReport(digest, exploreScenario(mc::scenarioCatalog()[s],
                                                     in_.mc_depth)
                                         .report);
        }
        SpanLog quiet;
        PlayContext ctx;
        ctx.inputs = &in_;
        ctx.spans = &quiet;
        ctx.digest = &digest;
        ctx.layers = traced ? &layers_ : nullptr;
        for (std::size_t i = 0; i < in_.traced_sessions; ++i)
            playSession(ctx, in_.sessions[i]);
        return {digest.value(), hostNs() - start};
    }

    /** Host share of the catalogue spent in the analysis hooks. */
    void
    measureAnalysisShare()
    {
        std::int64_t with = INT64_MAX;
        std::int64_t without = INT64_MAX;
        for (int repeat = 0; repeat < 2; ++repeat) {
            for (bool analysis : {true, false}) {
                std::int64_t total = 0;
                for (std::size_t s : in_.scenario_order)
                    total += exploreScenario(mc::scenarioCatalog()[s],
                                             in_.mc_depth, analysis)
                                 .host_ns;
                std::int64_t &best = analysis ? with : without;
                best = std::min(best, total);
            }
        }
        analysis_share_pct_ =
            ratio(static_cast<double>(with - without), static_cast<double>(with)) * 100.0;
    }

    MetricMap
    endToEndMetrics()
    {
        MetricMap m;
        m["setup_s"] = {setup_s_, "s"};
        m["ops_per_s"] = {mc_ ? explore_rate_ : slice_ops_.percentile(50), "1/s"};
        m["episode_host_us_p50"] = {slice_p50_.percentile(50), "us"};
        m["episode_host_us_p99"] = {slice_p99_.percentile(50), "us"};
        m["sim_events_per_s"] = {slice_events_.percentile(50), "1/s"};
        m["peak_rss_mb"] = {peak_rss_mb_, "MB"};
        m["virt_handling_ms_p50"] = {virt_.handling_ms.percentile(50), "virt_ms"};
        m["virt_handling_ms_p99"] = {virt_.handling_ms.percentile(99), "virt_ms"};
        m["virt_heap_mb"] = {ratio(virt_.heap_mb_sum,
                                   static_cast<double>(virt_.heap_samples)),
                             "virt_MB"};
        m["paper_err_pct"] = {virt_.paperErrPct(), "%"};
        return m;
    }

    MetricMap
    layerMetrics()
    {
        using metrics::Counter;
        using metrics::Histogram;
        const metrics::MetricsRegistry &reg = *registry_;
        const double episodes = static_cast<double>(layers_.episodes);
        const auto count = [](std::uint64_t v) { return Metric{static_cast<double>(v), "count"}; };
        MetricMap m;

        m["os.events"] = count(layers_.events);
        m["os.host_ns_per_event"] = {ratio(static_cast<double>(play_ns_),
                                           static_cast<double>(events_)), "ns"};
        m["os.dispatch_wait_us_p50"] = {reg.histogram(Histogram::kDispatchLatencyUs).percentile(50), "virt_us"};
        m["os.queue_depth_p99"] = {reg.histogram(Histogram::kQueueDepth).percentile(99), "count"};
        m["os.parcel_roundtrip_us"] = {probes_.parcel_roundtrip.nsPerOp() / 1e3, "us"};

        m["resources.loads_per_episode"] = {ratio(static_cast<double>(layers_.resource_loads), episodes), "count"};
        m["resources.virt_ms_per_episode"] = {ratio(toMillisF(layers_.resource_cost), episodes), "virt_ms"};
        m["resources.id_lookup_ns"] = {probes_.id_lookup.nsPerUnit(), "ns"};
        m["resources.resolve_ns"] = {probes_.resolve.nsPerUnit(), "ns"};

        m["view.inflations_per_episode"] = {ratio(static_cast<double>(layers_.layout_loads), episodes), "count"};
        m["view.inflate_us"] = {probes_.inflate.nsPerOp() / 1e3, "us"};
        m["view.inflate_ns_per_view"] = {probes_.inflate.nsPerUnit(), "ns"};
        m["view.visit_ns_per_view"] = {probes_.visit.nsPerUnit(), "ns"};

        const auto spans = virtualSpans(*tracer_);
        const auto spanOf = [&spans](const char *name) {
            const auto it = spans.find(name);
            return it == spans.end() ? SpanVirt{} : it->second;
        };
        m["app.launches"] = count(spanOf("app.performLaunch").count);
        m["app.crashes"] = count(reg.counter(Counter::kAppCrashes));
        m["app.live_activities_max"] = count(layers_.live_activities_max);

        const double hits = static_cast<double>(reg.counter(Counter::kCoinFlipHit));
        const double misses = static_cast<double>(reg.counter(Counter::kCoinFlipMiss));
        m["ams.config_changes"] = count(reg.counter(Counter::kConfigChanges));
        m["ams.relaunches"] = count(reg.counter(Counter::kRelaunches));
        m["ams.coin_flip_hit_ratio"] = {ratio(hits, hits + misses), "ratio"};

        const double wired = static_cast<double>(reg.counter(Counter::kMapWired));
        const double unmatched = static_cast<double>(reg.counter(Counter::kMapUnmatched));
        m["rch.flips"] = count(layers_.rch.flips);
        m["rch.init_launches"] = count(layers_.rch.init_launches);
        m["rch.gc_collections"] = count(layers_.rch.gc_collections);
        m["rch.gc_keeps"] = count(layers_.rch.gc_keeps);
        m["rch.views_migrated"] = count(layers_.rch.views_migrated);
        m["rch.map_wire_ratio"] = {ratio(wired, wired + unmatched), "ratio"};
        m["rch.flip_sync_virt_ms"] = {spanOf("rch.flipSync").meanMs(), "virt_ms"};
        m["rch.build_mapping_virt_ms"] = {spanOf("rch.buildMapping").meanMs(), "virt_ms"};
        m["rch.gc_check_virt_ms"] = {spanOf("rch.gcCheck").meanMs(), "virt_ms"};
        m["rch.build_mapping_us"] = {probes_.build_mapping.nsPerOp() / 1e3, "us"};

        const auto &agg = spans_.aggregates();
        const auto spanUs = [&agg](std::initializer_list<const char *> names,
                                   const char *per) {
            double total = 0.0;
            for (const char *name : names) {
                if (auto it = agg.find(name); it != agg.end())
                    total += static_cast<double>(it->second.total_ns);
            }
            const auto it = agg.find(per);
            return it == agg.end() ? 0.0
                                   : total / 1e3 / static_cast<double>(it->second.count);
        };
        m["sim.session_setup_us"] = {spanUs({"system_ctor", "install", "launch",
                                             "state", "install_launch"},
                                            "session"),
                                     "us"};
        m["sim.gap_us"] = {spanUs({"gap"}, "gap"), "us"};
        m["sim.verify_us"] = {spanUs({"verify"}, "verify"), "us"};
        m["sim.trace_events_per_episode"] = {ratio(static_cast<double>(layers_.trace_events), episodes), "count"};

        // Critical-path shares over the traced replay's episodes.
        const auto paths = profiling::extractCriticalPaths(profiling::fromTracer(*tracer_));
        std::map<std::string, double> by_kind;
        double path_total = 0.0;
        for (const auto &path : paths) {
            for (const auto &segment : path.segments) {
                by_kind[profiling::segmentKindName(segment.kind)] += segment.ms();
                path_total += segment.ms();
            }
        }
        for (const char *kind : {"queue-wait", "dispatch", "gc", "migration", "launch", "idle"})
            m[std::string("profiling.share.") + kind] = {ratio(by_kind[kind], path_total), "ratio"};

        m["platform.trace_overhead_pct"] = {trace_overhead_pct_, "%"};
        m["platform.reference_kernel_us"] = {reference_.percentile(50), "us"};
        m["platform.tracer_events"] = count(tracer_->eventCount());
        m["analysis.mc_share_pct"] = {analysis_share_pct_, "%"};

        mc::ExplorerStats sum;
        for (const auto &report : first_reports_) {
            const auto &s = report.stats;
            sum.executions += s.executions;
            sum.schedules_covered += s.schedules_covered;
            sum.visited_hits += s.visited_hits;
            sum.sleep_skips += s.sleep_skips;
            sum.mhp_prunes += s.mhp_prunes;
            sum.snapshots_taken += s.snapshots_taken;
            sum.snapshot_restores += s.snapshot_restores;
            sum.events_replayed += s.events_replayed;
        }
        m["mc.executions"] = count(sum.executions);
        m["mc.schedules_covered"] = count(sum.schedules_covered);
        m["mc.visited_hits"] = count(sum.visited_hits);
        m["mc.sleep_skips"] = count(sum.sleep_skips);
        m["mc.mhp_prunes"] = count(sum.mhp_prunes);
        m["mc.snapshots_taken"] = count(sum.snapshots_taken);
        m["mc.snapshot_restores"] = count(sum.snapshot_restores);
        m["mc.events_replayed"] = count(sum.events_replayed);
        m["mc.exec_us"] = {ratio(static_cast<double>(explore_ns_) / 1e3,
                                 static_cast<double>(executions_)), "us"};
        const auto &catalogue = mc::scenarioCatalog();
        for (std::size_t s = 0; s < catalogue.size(); ++s) {
            const double ms = s < scenario_ms_.size() ? scenario_ms_[s].percentile(50) : 0.0;
            m["mc.scenario_ms." + catalogue[s].name] = {ms, "ms"};
        }
        m["sa.catalog_build_ms"] = {catalog_ms_, "ms"};

        // Self time of each of the benchmark's own spans, as a share
        // of the host time its root spans cover.
        for (const char *name : kSpanNames) {
            const auto it = agg.find(name);
            const double self = it == agg.end() ? 0.0 : static_cast<double>(it->second.self_ns);
            m[std::string("host.self_pct.") + name] = {
                ratio(self, static_cast<double>(spans_.rootNs())) * 100.0, "%"};
        }
        m["check.fail_ratio"] = {ratio(static_cast<double>(checks_.failed()),
                                       static_cast<double>(checks_.attempted())),
                                 "ratio"};
        return m;
    }

    static constexpr std::int64_t kSliceNs = 250'000'000;
    /** Share of an mc_catalogue window spent exploring (rest: replays). */
    static constexpr double kExploreShare = 0.6;

    static constexpr const char *kSpanNames[] = {
        "session", "system_ctor", "install", "launch", "state", "install_launch",
        "tap", "change_wait", "gap", "verify", "teardown", "explore",
        "probe", "probe.os", "probe.view", "probe.resources", "probe.rch"};

    std::string
    infoJson() const
    {
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(window_digest_));
        Digest inputs;
        inputs.mixString(describeInputs(in_));
        char inputs_hex[32];
        std::snprintf(inputs_hex, sizeof inputs_hex, "%016llx",
                      static_cast<unsigned long long>(inputs.value()));
        std::string failures = "[";
        for (std::size_t i = 0; i < checks_.messages().size(); ++i)
            failures += (i ? ", " : "") + jsonString(checks_.messages()[i]);
        failures += "]";
        return std::string("{\"workload\": ") + jsonString(workloadName(in_.workload)) +
               ", \"seed\": " + std::to_string(in_.seed) +
               ", \"trace\": " + (args_.trace ? "1" : "0") +
               ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
               ", \"tracing_compiled\": " + (RCHDROID_TRACING ? "true" : "false") +
               ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
               ", \"digest\": \"" + digest + "\", \"inputs\": \"" + inputs_hex +
               "\", \"passes\": " + std::to_string(passes_) +
               ", \"sessions_per_pass\": " + std::to_string(in_.sessions.size()) +
               ", \"episodes\": " + std::to_string(episodes_) +
               ", \"explorations\": " + std::to_string(explorations_) +
               ", \"window_s\": " + jsonNumber(static_cast<double>(
                                         mc_ ? explore_ns_ + play_ns_ : play_ns_) / 1e9) +
               ", \"reference_us\": " + jsonNumber(reference_.percentile(50)) +
               ", \"failures\": " + failures + "}";
    }

    void
    printInfo() const
    {
        std::printf("{\"info\": %s}\n", infoJson().c_str());
    }

    void
    printResult(const MetricMap &metrics) const
    {
        std::string out = std::string("{\"correct\": ") +
                          (checks_.failed() == 0 ? "true" : "false") +
                          ", \"attempted\": " + std::to_string(checks_.attempted()) +
                          ", \"failed\": " + std::to_string(checks_.failed()) +
                          ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, metric] : metrics) {
            out += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
                   jsonNumber(metric.value) + ", \"unit\": " + jsonString(metric.unit) + "}";
            first = false;
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
    }

    const Args &args_;
    Inputs in_;
    double setup_s_;
    double catalog_ms_;
    bool mc_;

    SpanLog spans_;
    Checks checks_;
    /** Host latency of the current slice; per-slice results below. */
    HostHistogram slice_us_;
    Samples slice_ops_;
    /** Host-speed reference samples, us. */
    Samples reference_;
    Samples slice_events_;
    Samples slice_p50_;
    Samples slice_p99_;
    VirtualTotals virt_;
    std::uint64_t window_digest_ = 0;
    int passes_ = 0;
    std::int64_t play_ns_ = 0;
    std::uint64_t episodes_ = 0;
    std::uint64_t events_ = 0;
    double peak_rss_mb_ = 0.0;

    std::int64_t explore_ns_ = 0;
    double explore_rate_ = 0.0;
    std::uint64_t explorations_ = 0;
    std::uint64_t executions_ = 0;
    /** Per-scenario exploration times: as measured, and at nominal speed. */
    std::vector<Samples> scenario_ms_;
    std::vector<Samples> nominal_scenario_ms_;
    std::vector<mc::ExplorerReport> first_reports_;

    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<metrics::MetricsRegistry> registry_;
    LayerTotals layers_;
    ProbeResults probes_;
    double trace_overhead_pct_ = 0.0;
    double analysis_share_pct_ = 0.0;
};

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: rch_perfbench --workload restart_corpus|rch_async_gc|"
                     "mc_catalogue [--seed N] [--seconds S] [--trace 0|1] "
                     "[--spans-out PATH] [--describe]\n");
        return 2;
    }

    rchdroid::LogConfig::setQuiet(true);
    adoptExplorerProcesses();
    // One CPU for the driver and every process it starts: host figures
    // are then single-core work, free of the cross-CPU wake-ups that the
    // explorer's process hand-offs would otherwise pay, whose latency
    // on a shared VM follows the neighbours' load.
    pinToCurrentCpu();

    // Set-up: the scenario catalogue (independence specs included), the
    // seeded inputs, and one warm-up play (install, launch, state) so
    // lazy initialisation and cold caches land here, not in the window.
    // Its time is scaled by a reference sample taken right after it.
    const std::int64_t setup_start = hostNs();
    (void)rchdroid::mc::scenarioCatalog();
    const double catalog_ms = static_cast<double>(hostNs() - setup_start) / 1e6;
    Inputs inputs = generate(args.workload, args.seed);
    {
        // The same first app (or scenario) whatever the seed: set-up
        // cost must not depend on which session the seed puts first.
        SpanLog quiet;
        PlayContext warm_up;
        warm_up.inputs = &inputs;
        warm_up.spans = &quiet;
        playSession(warm_up, Session{});
    }
    const double setup_s = static_cast<double>(hostNs() - setup_start) / 1e9 /
                           (referenceUs() / kReferenceNominalUs);

    if (args.describe) {
        std::fputs(describeInputs(inputs).c_str(), stdout);
        return 0;
    }
    const int status = Runner(args, std::move(inputs), setup_s, catalog_ms).run();
    reapExplorerProcesses(true);
    return status;
}
