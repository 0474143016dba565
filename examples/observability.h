/**
 * @file
 * Shared observability flags for the example binaries:
 *
 *   --trace-out=FILE     write a Chrome trace-event JSON of the run
 *                        (open in Perfetto / chrome://tracing)
 *   --metrics-json=FILE  write the metrics registry as JSON
 *   --dumpsys            print a dumpsys-style state snapshot per device
 *
 * The helper strips its flags from argv (same pattern as
 * analysis::CheckMode), installs a MetricsRegistry for the whole run,
 * and installs a Tracer only when a trace was requested — with no flags
 * the instrumented framework pays the registry branch and nothing else.
 *
 * Each metrics output describes one device set. A dumpsys describes the
 * device it reports: the installed registry is emptied after every
 * report, so it holds that device's counts only. The metrics JSON
 * describes every device of the run, like the trace: counters and
 * histograms over all of them, gauges summed over the devices' final
 * samples, and a "profile" over all their episodes.
 */
#ifndef RCHDROID_EXAMPLES_OBSERVABILITY_H
#define RCHDROID_EXAMPLES_OBSERVABILITY_H

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "platform/metrics.h"
#include "platform/tracing.h"
#include "sim/dumpsys.h"

namespace rchdroid::examples {

class ObservabilityFlags
{
  public:
    /** Scans argv for the flags above and removes them. */
    ObservabilityFlags(int &argc, char **argv)
    {
        int kept = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--trace-out=", 0) == 0) {
                trace_path_ = arg.substr(std::string("--trace-out=").size());
            } else if (arg.rfind("--metrics-json=", 0) == 0) {
                metrics_path_ =
                    arg.substr(std::string("--metrics-json=").size());
            } else if (arg == "--dumpsys") {
                dumpsys_ = true;
            } else {
                argv[kept++] = argv[i];
            }
        }
        argc = kept;
        registry_guard_.emplace(&registry_);
        if (!trace_path_.empty()) {
            tracer_ = std::make_unique<trace::Tracer>();
            tracer_guard_.emplace(tracer_.get());
        }
    }

    /**
     * Report a finished device: prints dumpsys when requested, samples
     * the device's gauges and adds its counts and episodes to the run.
     * Call once per device, before it is destroyed.
     */
    void
    report(sim::AndroidSystem &device)
    {
        sim::sampleGauges(device, &registry_);
        if (dumpsys_)
            std::fputs(sim::dumpsys(device, &registry_).c_str(), stdout);
        if (!metrics_path_.empty()) {
            for (profiling::CriticalPath &path :
                 sim::episodeCriticalPaths(device))
                run_paths_.push_back(std::move(path));
        }
        run_.merge(registry_);
        registry_.reset();
    }

    /**
     * Write the requested output files.
     * @return 0 on success, 1 on I/O failure (compose with CheckMode's
     *         exit code).
     */
    int
    finish()
    {
        int rc = 0;
        if (!trace_path_.empty()) {
            if (tracer_->writeChromeJson(trace_path_)) {
                std::printf("trace written to %s (%zu events)\n",
                            trace_path_.c_str(), tracer_->eventCount());
            } else {
                std::fprintf(stderr, "failed to write trace to %s\n",
                             trace_path_.c_str());
                rc = 1;
            }
        }
        if (!metrics_path_.empty()) {
            // Counts made after the last report (or with none) belong to
            // the run as well.
            run_.merge(registry_);
            registry_.reset();
            const std::string json = sim::metricsJson(run_, run_paths_);
            std::FILE *f = std::fopen(metrics_path_.c_str(), "w");
            if (f) {
                std::fputs(json.c_str(), f);
                std::fclose(f);
                std::printf("metrics written to %s\n", metrics_path_.c_str());
            } else {
                std::fprintf(stderr, "failed to write metrics to %s\n",
                             metrics_path_.c_str());
                rc = 1;
            }
        }
        return rc;
    }

  private:
    std::string trace_path_;
    std::string metrics_path_;
    bool dumpsys_ = false;
    /** The device being run; emptied by every report(). */
    metrics::MetricsRegistry registry_;
    /** Every reported device, merged. */
    metrics::MetricsRegistry run_;
    /** Critical paths of every reported device's episodes. */
    std::vector<profiling::CriticalPath> run_paths_;
    std::unique_ptr<trace::Tracer> tracer_;
    /** Guards last: destroyed first, restoring the previous installs. */
    std::optional<metrics::ScopedMetricsRegistry> registry_guard_;
    std::optional<trace::ScopedTracer> tracer_guard_;
};

} // namespace rchdroid::examples

#endif // RCHDROID_EXAMPLES_OBSERVABILITY_H
