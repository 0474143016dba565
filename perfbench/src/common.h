/**
 * @file
 * Shared pieces of the repository benchmark: host clock, sample sets,
 * the output-check ledger, the statistics digest, the benchmark's own
 * host-time spans and the metric report.
 *
 * The benchmark drives the simulator from one thread. Host time is
 * read with steady_clock; virtual time comes from the simulator.
 */
#ifndef RCHDROID_PERFBENCH_COMMON_H
#define RCHDROID_PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using HostClock = std::chrono::steady_clock;

/** Host nanoseconds since an arbitrary epoch. */
inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               HostClock::now().time_since_epoch())
        .count();
}

/**
 * Pin this process to the CPU it is on. Every process it starts
 * inherits the pin: the explorer's snapshot processes, which hand work
 * to each other in turn, and the host-speed reference.
 */
void pinToCurrentCpu();

/**
 * The host-speed reference. Host metrics are reported at a nominal host
 * speed: rates are multiplied by (reference time / kReferenceNominalUs)
 * and times divided by it.
 */
constexpr double kReferenceNominalUs = 1000.0;

/**
 * One sample of the reference, in microseconds: the rch_perfbench_ref
 * binary next to this one (src/reference.cc, which links nothing from
 * the simulator) run in a child process while this process waits for
 * it. After pinToCurrentCpu() the child runs on this process's CPU, so
 * it sees the host as the driver does at that moment, but shares
 * neither its heap nor its running time. Exits the process if the
 * reference cannot be run.
 */
double referenceUs();

/** Values kept whole so percentiles are exact. */
class Samples
{
  public:
    void add(double value) { values_.push_back(value); }
    bool empty() const { return values_.empty(); }

    /** Nearest-rank percentile, p in [0, 100]; 0 when empty. */
    double
    percentile(double p) const
    {
        if (values_.empty())
            return 0.0;
        std::sort(values_.begin(), values_.end());
        const auto rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(values_.size())));
        return values_[std::min(rank == 0 ? 0 : rank - 1, values_.size() - 1)];
    }

  private:
    /** Sorted lazily by percentile(). */
    mutable std::vector<double> values_;
};

/**
 * Host durations in a fixed log-linear histogram: 1024 sub-buckets per
 * octave (0.1% resolution), allocated and touched up front so that the
 * number of samples a run collects does not move its memory footprint.
 */
class HostHistogram
{
  public:
    HostHistogram() : counts_(kBuckets, 0) {}

    void
    add(std::int64_t ns)
    {
        const auto v = static_cast<std::uint64_t>(ns < 0 ? 0 : ns);
        ++counts_[std::min<std::size_t>(indexOf(v), kBuckets - 1)];
        ++count_;
    }
    void
    clear()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        count_ = 0;
    }

    /** Nearest-rank percentile in microseconds (bucket midpoint). */
    double
    percentileUs(double p) const
    {
        if (count_ == 0)
            return 0.0;
        const auto rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += counts_[i];
            if (seen >= rank)
                return midpointNs(i) / 1e3;
        }
        return midpointNs(kBuckets - 1) / 1e3;
    }

  private:
    static constexpr int kSubBits = 10;
    static constexpr std::uint64_t kSub = 1u << kSubBits;
    static constexpr std::size_t kBuckets = 34 * kSub;

    static std::size_t
    indexOf(std::uint64_t v)
    {
        if (v < 2 * kSub)
            return static_cast<std::size_t>(v);
        const int shift = 63 - __builtin_clzll(v) - kSubBits;
        return static_cast<std::size_t>((shift + 1) * kSub + (v >> shift) - kSub);
    }

    static double
    midpointNs(std::size_t index)
    {
        if (index < 2 * kSub)
            return static_cast<double>(index);
        const std::uint64_t shift = index / kSub - 1;
        const std::uint64_t mantissa = index % kSub + kSub;
        return static_cast<double>(mantissa << shift) +
               static_cast<double>(1ULL << shift) / 2.0;
    }

    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
};

/**
 * Output checks. Every check is one attempted operation; a check that
 * does not hold is one failed operation and keeps its message.
 */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (messages_.size() < 20)
                messages_.push_back(what);
        }
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/** FNV-1a over the simulated statistics of a run. */
class Digest
{
  public:
    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ULL;
        }
    }
    void
    mixDouble(double value)
    {
        // Virtual times are exact multiples of a nanosecond; round to
        // a picosecond so formatting noise cannot leak in.
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value * 1e9)));
    }
    void
    mixString(const std::string &text)
    {
        for (unsigned char c : text) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ULL;
        }
        mix(text.size());
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * The benchmark's own host-time spans around its calls into the
 * simulator's public functions. Spans nest; every span's self time is
 * its duration minus the time its child spans cover. Aggregates cover
 * every span; the first `kKeep` raw spans stay in memory and are
 * written out when the benchmark ends.
 */
class SpanLog
{
  public:
    struct Raw
    {
        std::uint32_t name = 0;
        std::uint32_t parent = 0; ///< index + 1 into raw(), 0 = root
        std::int64_t begin_ns = 0;
        std::int64_t end_ns = 0;
    };
    struct Aggregate
    {
        std::uint64_t count = 0;
        std::int64_t total_ns = 0;
        std::int64_t self_ns = 0;
    };

    static constexpr std::size_t kKeep = 50'000;

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    void begin(const char *name);
    void end();

    const std::map<std::string, Aggregate> &aggregates() const { return aggregates_; }
    /** Host time covered by root spans. */
    std::int64_t rootNs() const { return root_ns_; }

    /** Write the kept spans and the aggregates as JSON. */
    bool writeJson(const std::string &path, const std::string &header_json) const;

  private:
    struct Open
    {
        std::uint32_t name;
        std::int64_t begin_ns;
        std::int64_t child_ns;
        std::int64_t raw_index; ///< -1 when not kept
    };
    std::uint32_t intern(const char *name);

    bool enabled_ = false;
    std::vector<Open> stack_;
    std::vector<Raw> raw_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> name_ids_;
    std::map<std::string, Aggregate> aggregates_;
    std::int64_t root_ns_ = 0;
};

/** RAII span on a SpanLog; free when the log is disabled. */
class Span
{
  public:
    Span(SpanLog &log, const char *name) : log_(log.enabled() ? &log : nullptr)
    {
        if (log_)
            log_->begin(name);
    }
    ~Span()
    {
        if (log_)
            log_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
};

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics in name order; the JSON writer keeps every digit. */
using MetricMap = std::map<std::string, Metric>;

/** Render a double with all its digits (17 significant). */
std::string jsonNumber(double value);
/** Quote and escape a string for JSON. */
std::string jsonString(const std::string &text);

} // namespace perfbench

#endif // RCHDROID_PERFBENCH_COMMON_H
