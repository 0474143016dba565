/**
 * @file
 * Layer probes: benchmark-timed direct calls into one layer's public
 * functions, on the workload's own apps, each on a device that has
 * just handled one rotation (so RCHDroid devices hold a shadow).
 */
#ifndef RCHDROID_PERFBENCH_PROBES_H
#define RCHDROID_PERFBENCH_PROBES_H

#include <cstdint>

#include "common.h"
#include "generators.h"

namespace perfbench {

/** Total host time and operation count of one probe kind. */
struct ProbeTotal
{
    std::int64_t ns = 0;
    std::uint64_t ops = 0;
    /** Per-op quantity (views visited, views inflated); 0 if unused. */
    std::uint64_t units = 0;

    double nsPerOp() const { return ops ? static_cast<double>(ns) / ops : 0.0; }
    double nsPerUnit() const { return units ? static_cast<double>(ns) / units : 0.0; }
};

struct ProbeResults
{
    ProbeTotal parcel_roundtrip;
    ProbeTotal id_lookup;
    ProbeTotal resolve;
    ProbeTotal inflate;
    ProbeTotal visit;
    ProbeTotal build_mapping;
};

/** Probe every app (sim workloads) or scenario (mc) of the inputs. */
ProbeResults runProbes(const Inputs &inputs, SpanLog &spans);

} // namespace perfbench

#endif // RCHDROID_PERFBENCH_PROBES_H
