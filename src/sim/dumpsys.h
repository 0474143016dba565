/**
 * @file
 * dumpsys: the simulator's `adb shell dumpsys activity` — a pretty
 * printed snapshot of the system's introspectable state (task stack and
 * shadow records, per-process RCH counters, looper health) plus the
 * installed MetricsRegistry, with a machine-readable JSON twin the bench
 * binaries embed in their BENCH_*.json output.
 */
#ifndef RCHDROID_SIM_DUMPSYS_H
#define RCHDROID_SIM_DUMPSYS_H

#include <string>
#include <vector>

#include "platform/metrics.h"
#include "profiling/critical_path.h"
#include "sim/android_system.h"

namespace rchdroid::sim {

/**
 * Pretty-print the system state dumpsys-style. Samples the point-in-time
 * gauges (live activities, heap, pending messages) into `registry`
 * before rendering it; pass null to dump the system sections only.
 */
std::string dumpsys(AndroidSystem &system,
                    metrics::MetricsRegistry *registry =
                        metrics::MetricsRegistry::current());

/**
 * The machine-readable twin: the registry's JSON with the same gauge
 * sampling applied. "{}\n" when no registry is installed.
 */
std::string metricsJson(AndroidSystem &system,
                        metrics::MetricsRegistry *registry =
                            metrics::MetricsRegistry::current());

/** Sample the point-in-time gauges (live activities, heap, pending
 *  messages) of the live system into `registry` (may be null). */
void sampleGauges(AndroidSystem &system, metrics::MetricsRegistry *registry);

/**
 * Critical paths of this system's completed episodes, in episode order,
 * when a tracer is live (empty otherwise). The tracer may span several
 * sequential systems; only this system's episodes are returned.
 */
std::vector<profiling::CriticalPath> episodeCriticalPaths(AndroidSystem &system);

/**
 * A metrics document from a registry and the critical paths of the
 * episodes it counted: the registry's JSON, plus a "profile" member
 * summarising `paths` when there are any. The caller keeps the two
 * over the same device set.
 */
std::string metricsJson(const metrics::MetricsRegistry &registry,
                        const std::vector<profiling::CriticalPath> &paths);

} // namespace rchdroid::sim

#endif // RCHDROID_SIM_DUMPSYS_H
