#include "platform/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "platform/strings.h"

namespace rchdroid::metrics {

thread_local MetricsRegistry *MetricsRegistry::current_ = nullptr;

const char *
counterName(Counter c)
{
    static constexpr const char *kNames[] = {
        "config_changes",
        "relaunches",
        "coin_flip_hit",
        "coin_flip_miss",
        "shadow_entered",
        "gc_collected",
        "gc_kept_young",
        "gc_kept_frequent",
        "map_wired",
        "map_unmatched",
        "views_migrated",
        "migrate_batches",
        "messages_dispatched",
        "app_crashes",
        "episodes_completed",
        "episodes_aborted",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<std::size_t>(Counter::kCount));
    return kNames[static_cast<std::size_t>(c)];
}

const char *
gaugeName(Gauge g)
{
    static constexpr const char *kNames[] = {
        "live_activities",
        "heap_bytes",
        "pending_messages",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<std::size_t>(Gauge::kCount));
    return kNames[static_cast<std::size_t>(g)];
}

const char *
histogramName(Histogram h)
{
    static constexpr const char *kNames[] = {
        "dispatch_latency_us",
        "dispatch_cost_us",
        "queue_depth",
        "handling_ms",
        "mapped_views_per_build",
    };
    static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                  static_cast<std::size_t>(Histogram::kCount));
    return kNames[static_cast<std::size_t>(h)];
}

void
LogHistogram::observe(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    ++buckets_[bucketIndex(value)];
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < kBucketCount; ++i)
        buckets_[i] += other.buckets_[i];
}

std::size_t
LogHistogram::bucketIndex(double value)
{
    // Bucket 0 catches everything below 1 (including 0 and negatives —
    // the instrumented quantities are non-negative, so sub-unit values
    // are all "effectively zero" at the resolutions we care about).
    if (!(value >= 1.0))
        return 0;
    int exp = 0;
    const double mantissa = std::frexp(value, &exp); // value = m * 2^exp
    const int octave = exp - 1;                      // [2^octave, 2^(octave+1))
    if (octave >= kOctaves)
        return kBucketCount - 1;
    auto sub = static_cast<int>((mantissa - 0.5) * 2.0 * kSubBuckets);
    sub = std::clamp(sub, 0, kSubBuckets - 1);
    return 1 + static_cast<std::size_t>(octave) * kSubBuckets +
           static_cast<std::size_t>(sub);
}

double
LogHistogram::bucketLo(std::size_t index)
{
    if (index == 0)
        return 0.0;
    const std::size_t octave = (index - 1) / kSubBuckets;
    const std::size_t sub = (index - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets,
                      static_cast<int>(octave));
}

double
LogHistogram::bucketHi(std::size_t index)
{
    if (index == 0)
        return 1.0;
    const std::size_t octave = (index - 1) / kSubBuckets;
    const std::size_t sub = (index - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets,
                      static_cast<int>(octave));
}

double
LogHistogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p <= 0.0)
        return min_;
    if (p >= 100.0)
        return max_;
    const double target = p / 100.0 * static_cast<double>(count_);
    double cum = 0.0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        const auto n = static_cast<double>(buckets_[i]);
        if (n == 0.0)
            continue;
        if (cum + n >= target) {
            const double frac = (target - cum) / n;
            const double value =
                bucketLo(i) + frac * (bucketHi(i) - bucketLo(i));
            return std::clamp(value, min_, max_);
        }
        cum += n;
    }
    return max_;
}

void
MetricsRegistry::addLabeled(Counter c, std::string_view label, std::uint64_t n)
{
    add(c, n);
    std::string key(counterName(c));
    key += '/';
    key += label;
    labeled_[key] += n;
}

std::uint64_t
MetricsRegistry::labeled(Counter c, std::string_view label) const
{
    std::string key(counterName(c));
    key += '/';
    key += label;
    const auto it = labeled_.find(key);
    return it == labeled_.end() ? 0 : it->second;
}

void
MetricsRegistry::reset()
{
    counters_.fill(0);
    gauges_.fill(0.0);
    histograms_.fill(LogHistogram{});
    labeled_.clear();
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    for (std::size_t i = 0; i < counters_.size(); ++i)
        counters_[i] += other.counters_[i];
    for (std::size_t i = 0; i < gauges_.size(); ++i)
        gauges_[i] += other.gauges_[i];
    for (std::size_t i = 0; i < histograms_.size(); ++i)
        histograms_[i].merge(other.histograms_[i]);
    for (const auto &[key, n] : other.labeled_)
        labeled_[key] += n;
}

namespace {

std::string
histogramLine(const LogHistogram &h)
{
    std::ostringstream os;
    os << "count=" << h.count() << " min=" << formatDouble(h.min(), 3)
       << " p50=" << formatDouble(h.percentile(50), 3)
       << " p95=" << formatDouble(h.percentile(95), 3)
       << " p99=" << formatDouble(h.percentile(99), 3)
       << " max=" << formatDouble(h.max(), 3)
       << " mean=" << formatDouble(h.mean(), 3);
    return os.str();
}

} // namespace

std::string
MetricsRegistry::toText() const
{
    std::ostringstream os;
    os << "Counters:\n";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
         ++i) {
        if (counters_[i] == 0)
            continue; // dumpsys readability: elide never-hit counters
        os << "  " << padRight(counterName(static_cast<Counter>(i)), 24)
           << counters_[i] << '\n';
    }
    if (!labeled_.empty()) {
        os << "Labeled counters:\n";
        for (const auto &[key, value] : labeled_) {
            os << "  " << padRight(key, 36) << value << '\n';
        }
    }
    os << "Gauges:\n";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i) {
        os << "  " << padRight(gaugeName(static_cast<Gauge>(i)), 24)
           << formatDouble(gauges_[i], 1) << '\n';
    }
    os << "Histograms:\n";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Histogram::kCount);
         ++i) {
        const LogHistogram &h = histograms_[i];
        if (h.count() == 0)
            continue;
        os << "  " << padRight(histogramName(static_cast<Histogram>(i)), 24)
           << histogramLine(h) << '\n';
    }
    return os.str();
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"rchdroid_metrics/1\",\n  \"counters\": {";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
         ++i) {
        os << (i ? ",\n    \"" : "\n    \"")
           << counterName(static_cast<Counter>(i)) << "\": " << counters_[i];
    }
    os << "\n  },\n  \"labeled\": {";
    bool first = true;
    for (const auto &[key, value] : labeled_) {
        os << (first ? "\n    \"" : ",\n    \"") << key << "\": " << value;
        first = false;
    }
    os << "\n  },\n  \"gauges\": {";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i) {
        os << (i ? ",\n    \"" : "\n    \"")
           << gaugeName(static_cast<Gauge>(i))
           << "\": " << formatDouble(gauges_[i], 3);
    }
    os << "\n  },\n  \"histograms\": {";
    for (std::size_t i = 0; i < static_cast<std::size_t>(Histogram::kCount);
         ++i) {
        const LogHistogram &h = histograms_[i];
        os << (i ? ",\n    \"" : "\n    \"")
           << histogramName(static_cast<Histogram>(i)) << "\": {"
           << "\"count\": " << h.count()
           << ", \"sum\": " << formatDouble(h.sum(), 3)
           << ", \"min\": " << formatDouble(h.min(), 3)
           << ", \"p50\": " << formatDouble(h.percentile(50), 3)
           << ", \"p95\": " << formatDouble(h.percentile(95), 3)
           << ", \"p99\": " << formatDouble(h.percentile(99), 3)
           << ", \"max\": " << formatDouble(h.max(), 3)
           << ", \"mean\": " << formatDouble(h.mean(), 3) << "}";
    }
    os << "\n  }\n}\n";
    return os.str();
}

} // namespace rchdroid::metrics
