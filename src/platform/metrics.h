/**
 * @file
 * Metrics registry: process-wide counters, gauges and log-bucketed
 * histograms instrumented at every RCH decision point — coin-flip
 * hit/miss, shadow-GC reclaim reasons, view-map hit rate, lazy-migration
 * counts per view type, message-queue depth and dispatch latency.
 *
 * A consumer (shell, example, test) creates a MetricsRegistry and
 * installs it with ScopedMetricsRegistry, which points the
 * instrumentation seam's metrics observer (os/instrumentation.h) at it.
 * The framework never calls the registry: the observer derives every
 * counter and histogram from the events the seam carries, and compiles
 * out under RCHDROID_TRACING=0. The thread-local install keeps
 * independent simulations isolated under the bench ParallelRunner,
 * exactly like Looper::current().
 */
#ifndef RCHDROID_PLATFORM_METRICS_H
#define RCHDROID_PLATFORM_METRICS_H

#ifndef RCHDROID_TRACING
#define RCHDROID_TRACING 1
#endif

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "platform/compiler.h"

namespace rchdroid::metrics {

/** Monotonic event tallies. Names in counterName(). */
enum class Counter : std::uint8_t {
    kConfigChanges = 0,   ///< atms.updateConfiguration calls
    kRelaunches,          ///< classic destroy/recreate relaunches
    kCoinFlipHit,         ///< intent resolved to a flippable shadow
    kCoinFlipMiss,        ///< no shadow matched; sunny create instead
    kShadowEntered,       ///< activities demoted to shadow state
    kGcCollected,         ///< shadows reclaimed by Algorithm 1
    kGcKeptYoung,         ///< GC keep: shadow age <= THRESH_T
    kGcKeptFrequent,      ///< GC keep: shadow frequency >= THRESH_F
    kMapWired,            ///< essence view-map lookups that wired a view
    kMapUnmatched,        ///< essence view-map lookups that found nothing
    kViewsMigrated,       ///< views lazily migrated on invalidate
    kMigrateBatches,      ///< lazy-migration batches executed
    kMessagesDispatched,  ///< looper messages dispatched
    kAppCrashes,          ///< uncaught exceptions in app code
    kEpisodesCompleted,   ///< config-change episodes that reached resume
    kEpisodesAborted,     ///< episodes cut short by the next change
    kCount
};

/** Point-in-time values. Names in gaugeName(). */
enum class Gauge : std::uint8_t {
    kLiveActivities = 0,  ///< activity instances alive in the process
    kHeapBytes,           ///< simulated app heap occupancy
    kPendingMessages,     ///< queued messages across loopers (last sample)
    kCount
};

/** Distributions. Names in histogramName(). */
enum class Histogram : std::uint8_t {
    kDispatchLatencyUs = 0,  ///< enqueue `when` -> dispatch start
    kDispatchCostUs,         ///< per-message executed CPU cost
    kQueueDepth,             ///< looper queue depth sampled at enqueue
    kHandlingMs,             ///< config-change handling time (the paper's §5.1 metric)
    kMappedViewsPerBuild,    ///< views wired per essence-map build
    kCount
};

const char *counterName(Counter c);
const char *gaugeName(Gauge g);
const char *histogramName(Histogram h);

/**
 * A log-bucketed histogram: 4 sub-buckets per power-of-two octave (via
 * frexp), giving <= 12% relative bucket width across the full range of
 * non-negative doubles, with exact count/sum/min/max on the side.
 * Percentiles interpolate linearly inside the containing bucket and are
 * clamped to the observed [min, max].
 */
class LogHistogram
{
  public:
    /** Sub-buckets per octave; bucket 0 catches values < 1. */
    static constexpr int kSubBuckets = 4;
    /** Octaves covered: values in [1, 2^kOctaves); larger values clamp. */
    static constexpr int kOctaves = 62;
    static constexpr std::size_t kBucketCount =
        1 + static_cast<std::size_t>(kOctaves) * kSubBuckets;

    void observe(double value);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
    /** @param p Percentile in [0, 100]. 0 with no samples. */
    double percentile(double p) const;

    /** Bucket index a value falls into (exposed for tests). */
    static std::size_t bucketIndex(double value);
    /** Inclusive lower / exclusive upper bound of a bucket. */
    static double bucketLo(std::size_t index);
    static double bucketHi(std::size_t index);

    const std::array<std::uint64_t, kBucketCount> &buckets() const
    {
        return buckets_;
    }

  private:
    std::array<std::uint64_t, kBucketCount> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * The registry: fixed enum-indexed slots plus a string-labeled overflow
 * map for low-rate dimensional counters (per-view-type migrations,
 * per-reason GC keeps). Single-threaded by design — one registry per
 * simulation thread, installed via ScopedMetricsRegistry.
 */
class MetricsRegistry
{
  public:
    void add(Counter c, std::uint64_t n = 1)
    {
        counters_[static_cast<std::size_t>(c)] += n;
    }
    /** Tally under "<counter>/<label>" as well as the plain counter. */
    void addLabeled(Counter c, std::string_view label, std::uint64_t n = 1);
    void set(Gauge g, double value)
    {
        gauges_[static_cast<std::size_t>(g)] = value;
    }
    void observe(Histogram h, double value)
    {
        histograms_[static_cast<std::size_t>(h)].observe(value);
    }

    std::uint64_t counter(Counter c) const
    {
        return counters_[static_cast<std::size_t>(c)];
    }
    std::uint64_t labeled(Counter c, std::string_view label) const;
    double gauge(Gauge g) const
    {
        return gauges_[static_cast<std::size_t>(g)];
    }
    const LogHistogram &histogram(Histogram h) const
    {
        return histograms_[static_cast<std::size_t>(h)];
    }
    const std::map<std::string, std::uint64_t> &labeledCounters() const
    {
        return labeled_;
    }

    void reset();

    /** dumpsys-style pretty print (zero-valued slots elided). */
    std::string toText() const;
    /** Machine-readable twin: one JSON object, schema rchdroid_metrics/1. */
    std::string toJson() const;

    /** Registry installed on this thread, or null. */
    RCHDROID_NO_SANITIZE_NULL static MetricsRegistry *current()
    {
        return current_;
    }

  private:
    friend class ScopedMetricsRegistry;
    RCHDROID_NO_SANITIZE_NULL static void setCurrent(MetricsRegistry *registry)
    {
        current_ = registry;
    }

    std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
        counters_{};
    std::array<double, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
    std::array<LogHistogram, static_cast<std::size_t>(Histogram::kCount)>
        histograms_{};
    /** "<counter>/<label>" -> tally; ordered for stable dumps. */
    std::map<std::string, std::uint64_t> labeled_;

    static thread_local MetricsRegistry *current_;
};

/**
 * RAII install/restore of the thread's registry (nestable; the previous
 * registry is restored on destruction). attach() also points the
 * instrumentation seam's metrics observer at it; it is defined with that
 * observer in os/instrumentation.cc.
 */
class ScopedMetricsRegistry
{
  public:
    explicit ScopedMetricsRegistry(MetricsRegistry *registry)
        : previous_(MetricsRegistry::current())
    {
        attach(registry);
    }
    ~ScopedMetricsRegistry() { attach(previous_); }

    ScopedMetricsRegistry(const ScopedMetricsRegistry &) = delete;
    ScopedMetricsRegistry &operator=(const ScopedMetricsRegistry &) = delete;

  private:
    static void attach(MetricsRegistry *registry);

    MetricsRegistry *previous_;
};

} // namespace rchdroid::metrics

#endif // RCHDROID_PLATFORM_METRICS_H
