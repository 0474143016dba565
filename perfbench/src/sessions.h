/**
 * @file
 * Plays generated sessions on fresh simulated devices and collects what
 * the metrics need: host time per change, virtual handling time and
 * heap, per-layer counts, the statistics digest and the output checks.
 */
#ifndef RCHDROID_PERFBENCH_SESSIONS_H
#define RCHDROID_PERFBENCH_SESSIONS_H

#include <cstdint>
#include <map>
#include <string>

#include "common.h"
#include "generators.h"
#include "rch/rch_config.h"

namespace perfbench {

/** Virtual-time results; deterministic for a seed. */
struct VirtualTotals
{
    Samples handling_ms;
    double heap_mb_sum = 0.0;
    std::uint64_t heap_samples = 0;

    /** A paper anchor and the mean of the episodes measured against it. */
    struct Anchor
    {
        double paper_ms = 0.0;
        double sum_ms = 0.0;
        std::uint64_t count = 0;
    };
    std::map<std::string, Anchor> anchors;

    void addAnchor(const std::string &name, double paper_ms, double measured_ms);
    /** Mean |measured - paper| / paper over the anchors hit, in %. */
    double paperErrPct() const;
};

/** Per-layer counts summed over the sessions played. */
struct LayerTotals
{
    std::uint64_t episodes = 0;
    std::uint64_t events = 0;
    std::uint64_t resource_loads = 0;
    rchdroid::SimDuration resource_cost = 0;
    /** Layout inflations, the launch's included. */
    std::uint64_t layout_loads = 0;
    std::uint64_t live_activities_max = 0;
    std::uint64_t trace_events = 0;
    rchdroid::RchStats rch;
};

/** What a session play feeds; null members are not collected. */
struct PlayContext
{
    const Inputs *inputs = nullptr;
    SpanLog *spans = nullptr;
    Checks *checks = nullptr;
    HostHistogram *host_us = nullptr;
    VirtualTotals *virt = nullptr;
    LayerTotals *layers = nullptr;
    Digest *digest = nullptr;
    /** Completed change+wait episodes and scheduler events, always. */
    std::uint64_t episodes = 0;
    std::uint64_t events = 0;
};

/** Play one session on a fresh device. */
void playSession(PlayContext &ctx, const Session &session);

} // namespace perfbench

#endif // RCHDROID_PERFBENCH_SESSIONS_H
