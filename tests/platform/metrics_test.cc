/**
 * @file
 * MetricsRegistry and LogHistogram: bucketing, percentiles, labeled
 * counters and the scoped-install idiom.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "os/instrumentation.h"
#include "platform/metrics.h"

namespace rchdroid::metrics {
namespace {

TEST(LogHistogram, BucketZeroCatchesSubUnitValues)
{
    EXPECT_EQ(LogHistogram::bucketIndex(0.0), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(0.5), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(0.999), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(-3.0), 0u);  // negatives clamp
    EXPECT_EQ(LogHistogram::bucketIndex(std::nan("")), 0u);
    EXPECT_EQ(LogHistogram::bucketIndex(1.0), 1u);
}

TEST(LogHistogram, BucketBoundsContainTheirValues)
{
    for (double value : {1.0, 1.49, 2.0, 3.14, 10.0, 1000.0, 1e6, 1e12}) {
        const std::size_t index = LogHistogram::bucketIndex(value);
        EXPECT_LE(LogHistogram::bucketLo(index), value) << value;
        EXPECT_GT(LogHistogram::bucketHi(index), value) << value;
    }
    // 4 sub-buckets per octave: [1,1.25), [1.25,1.5), [1.5,1.75), [1.75,2)
    EXPECT_NE(LogHistogram::bucketIndex(1.0), LogHistogram::bucketIndex(1.3));
    EXPECT_NE(LogHistogram::bucketIndex(1.3), LogHistogram::bucketIndex(1.6));
    EXPECT_EQ(LogHistogram::bucketIndex(2.0),
              1u + LogHistogram::kSubBuckets);
}

TEST(LogHistogram, ExactStatsAndEmptyBehaviour)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);

    h.observe(2.0);
    h.observe(8.0);
    h.observe(4.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 14.0);
    EXPECT_DOUBLE_EQ(h.min(), 2.0);
    EXPECT_DOUBLE_EQ(h.max(), 8.0);
    EXPECT_NEAR(h.mean(), 14.0 / 3.0, 1e-12);
}

TEST(LogHistogram, PercentilesWithinBucketResolution)
{
    LogHistogram h;
    for (int i = 1; i <= 1000; ++i)
        h.observe(static_cast<double>(i));
    // Log bucketing with 4 sub-buckets/octave bounds relative error by
    // the bucket width (< 25% here, typically ~12%).
    EXPECT_NEAR(h.percentile(50), 500.0, 500.0 * 0.25);
    EXPECT_NEAR(h.percentile(95), 950.0, 950.0 * 0.25);
    EXPECT_NEAR(h.percentile(99), 990.0, 990.0 * 0.25);
    // Extremes clamp to the exact observed min/max.
    EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
    // Monotone in p.
    EXPECT_LE(h.percentile(50), h.percentile(95));
    EXPECT_LE(h.percentile(95), h.percentile(99));
}

TEST(LogHistogram, SingleSampleAllPercentilesCollapse)
{
    LogHistogram h;
    h.observe(42.0);
    EXPECT_DOUBLE_EQ(h.percentile(1), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 42.0);
}

TEST(MetricsRegistry, CountersGaugesAndLabels)
{
    MetricsRegistry registry;
    registry.add(Counter::kCoinFlipHit);
    registry.add(Counter::kCoinFlipHit, 2);
    registry.set(Gauge::kLiveActivities, 3.0);
    registry.addLabeled(Counter::kViewsMigrated, "ImageView", 4);
    registry.addLabeled(Counter::kViewsMigrated, "TextView");

    EXPECT_EQ(registry.counter(Counter::kCoinFlipHit), 3u);
    EXPECT_EQ(registry.counter(Counter::kCoinFlipMiss), 0u);
    EXPECT_DOUBLE_EQ(registry.gauge(Gauge::kLiveActivities), 3.0);
    // Labeled adds tally the plain counter too.
    EXPECT_EQ(registry.counter(Counter::kViewsMigrated), 5u);
    EXPECT_EQ(registry.labeled(Counter::kViewsMigrated, "ImageView"), 4u);
    EXPECT_EQ(registry.labeled(Counter::kViewsMigrated, "TextView"), 1u);
    EXPECT_EQ(registry.labeled(Counter::kViewsMigrated, "Nothing"), 0u);

    registry.reset();
    EXPECT_EQ(registry.counter(Counter::kCoinFlipHit), 0u);
    EXPECT_TRUE(registry.labeledCounters().empty());
}

TEST(MetricsRegistry, MergeRecordsAsIfObservedHereAndSumsGauges)
{
    MetricsRegistry first, second, whole;
    for (double v : {3.0, 90.0, 0.5}) {
        first.observe(Histogram::kHandlingMs, v);
        whole.observe(Histogram::kHandlingMs, v);
    }
    for (double v : {160.0, 7.0}) {
        second.observe(Histogram::kHandlingMs, v);
        whole.observe(Histogram::kHandlingMs, v);
    }
    first.add(Counter::kConfigChanges, 2);
    second.add(Counter::kConfigChanges, 3);
    first.addLabeled(Counter::kViewsMigrated, "ImageView", 4);
    second.addLabeled(Counter::kViewsMigrated, "ImageView", 1);
    second.addLabeled(Counter::kViewsMigrated, "TextView", 2);
    first.set(Gauge::kLiveActivities, 1.0);
    second.set(Gauge::kLiveActivities, 2.0);

    MetricsRegistry merged;
    merged.merge(first);
    merged.merge(second);
    EXPECT_EQ(merged.counter(Counter::kConfigChanges), 5u);
    EXPECT_EQ(merged.counter(Counter::kViewsMigrated), 7u);
    EXPECT_EQ(merged.labeled(Counter::kViewsMigrated, "ImageView"), 5u);
    EXPECT_EQ(merged.labeled(Counter::kViewsMigrated, "TextView"), 2u);
    EXPECT_DOUBLE_EQ(merged.gauge(Gauge::kLiveActivities), 3.0);

    const LogHistogram &got = merged.histogram(Histogram::kHandlingMs);
    const LogHistogram &want = whole.histogram(Histogram::kHandlingMs);
    EXPECT_EQ(got.count(), want.count());
    EXPECT_DOUBLE_EQ(got.sum(), want.sum());
    EXPECT_DOUBLE_EQ(got.min(), want.min());
    EXPECT_DOUBLE_EQ(got.max(), want.max());
    EXPECT_EQ(got.buckets(), want.buckets());
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(got.percentile(p), want.percentile(p));
}

TEST(MetricsRegistry, TextAndJsonRenderings)
{
    MetricsRegistry registry;
    registry.add(Counter::kConfigChanges, 7);
    registry.observe(Histogram::kHandlingMs, 90.0);
    registry.observe(Histogram::kHandlingMs, 160.0);
    registry.addLabeled(Counter::kViewsMigrated, "ImageView", 8);

    const std::string text = registry.toText();
    EXPECT_NE(text.find("config_changes"), std::string::npos);
    EXPECT_NE(text.find("views_migrated/ImageView"), std::string::npos);
    EXPECT_NE(text.find("handling_ms"), std::string::npos);
    // Zero-valued counters are elided from the pretty print.
    EXPECT_EQ(text.find("app_crashes"), std::string::npos);

    const std::string json = registry.toJson();
    EXPECT_NE(json.find("\"rchdroid_metrics/1\""), std::string::npos);
    EXPECT_NE(json.find("\"config_changes\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"handling_ms\""), std::string::npos);
}

TEST(MetricsRegistry, ScopedInstallIsNestedAndFeedsOnlyTheInnermost)
{
    EXPECT_EQ(MetricsRegistry::current(), nullptr);
    EXPECT_EQ(seam::observers(), nullptr);
    // Events with no registry installed go nowhere.
    seam::emit(&seam::Observer::onShadowEntered);

    MetricsRegistry outer;
    {
        ScopedMetricsRegistry outer_guard(&outer);
        EXPECT_EQ(MetricsRegistry::current(), &outer);
        seam::emit(&seam::Observer::onShadowEntered);
        {
            MetricsRegistry inner;
            ScopedMetricsRegistry inner_guard(&inner);
            seam::emit(&seam::Observer::onShadowEntered);
            seam::emit(&seam::Observer::onViewMigrated, "ImageView", true);
#if RCHDROID_TRACING
            EXPECT_EQ(inner.counter(Counter::kShadowEntered), 1u);
            EXPECT_EQ(inner.labeled(Counter::kViewsMigrated, "ImageView"),
                      1u);
            EXPECT_EQ(inner.counter(Counter::kMigrateBatches), 1u);
#endif
        }
        EXPECT_EQ(MetricsRegistry::current(), &outer);
    }
    EXPECT_EQ(MetricsRegistry::current(), nullptr);
    EXPECT_EQ(seam::observers(), nullptr);
#if RCHDROID_TRACING
    EXPECT_EQ(outer.counter(Counter::kShadowEntered), 1u);
    EXPECT_EQ(outer.counter(Counter::kViewsMigrated), 0u);
#endif
}

TEST(MetricsNames, AllSlotsNamed)
{
    for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount);
         ++i)
        EXPECT_STRNE(counterName(static_cast<Counter>(i)), "");
    for (std::size_t i = 0; i < static_cast<std::size_t>(Gauge::kCount); ++i)
        EXPECT_STRNE(gaugeName(static_cast<Gauge>(i)), "");
    for (std::size_t i = 0; i < static_cast<std::size_t>(Histogram::kCount);
         ++i)
        EXPECT_STRNE(histogramName(static_cast<Histogram>(i)), "");
}

} // namespace
} // namespace rchdroid::metrics
