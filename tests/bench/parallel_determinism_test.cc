/**
 * @file
 * The parallel experiment runner's two contracts: every index runs
 * exactly once with results in index order, and a handling matrix fanned
 * across N threads aggregates bit-identically to the serial sweep.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "parallel_runner.h"

namespace rchdroid::bench {
namespace {

TEST(ParallelRunner, MapReturnsResultsInIndexOrder)
{
    const ParallelRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4);
    const auto out = runner.map<int>(
        100, [](std::size_t i) { return static_cast<int>(i) * 3; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 3);
}

TEST(ParallelRunner, EveryIndexRunsExactlyOnce)
{
    const ParallelRunner runner(8);
    std::vector<std::atomic<int>> hits(257);
    runner.forEach(hits.size(), [&hits](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ParallelRunner, JobsOneRunsInline)
{
    const ParallelRunner runner(1);
    const auto self = std::this_thread::get_id();
    runner.forEach(4, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), self);
    });
}

TEST(ParseJobsFlag, ExtractsAndStripsTheFlag)
{
    char prog[] = "bench";
    char jobs_eq[] = "--jobs=6";
    char other[] = "--out=x.json";
    char *argv[] = {prog, jobs_eq, other, nullptr};
    int argc = 3;
    EXPECT_EQ(parseJobsFlag(argc, argv), 6);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--out=x.json");

    char jobs_flag[] = "--jobs";
    char jobs_value[] = "3";
    char *argv2[] = {prog, jobs_flag, jobs_value, nullptr};
    int argc2 = 3;
    EXPECT_EQ(parseJobsFlag(argc2, argv2), 3);
    EXPECT_EQ(argc2, 1);

    char *argv3[] = {prog, other, nullptr};
    int argc3 = 2;
    EXPECT_EQ(parseJobsFlag(argc3, argv3), 0);
    EXPECT_EQ(argc3, 2);
}

TEST(ParseJobsFlag, JobCountsAreStrictPositiveIntegers)
{
    EXPECT_EQ(parseJobCount("1"), 1);
    EXPECT_EQ(parseJobCount("12"), 12);
    EXPECT_EQ(parseJobCount("2147483647"), 2147483647);
    for (const char *bad : {"", "abc", "-3", "0", "-0", "+3", "4x", " 4",
                            "4 ", "2147483648", "99999999999999999999"})
        EXPECT_EQ(parseJobCount(bad), std::nullopt) << '"' << bad << '"';
}

TEST(ParseJobsFlag, MalformedValuesExitTwoWithAMessage)
{
    // Each case runs the parser alone in a child; none starts a runner.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const auto parse = [](std::vector<std::string> args) {
        std::vector<char *> argv;
        static char prog[] = "bench";
        argv.push_back(prog);
        for (std::string &arg : args)
            argv.push_back(arg.data());
        argv.push_back(nullptr);
        int argc = static_cast<int>(argv.size()) - 1;
        parseJobsFlag(argc, argv.data());
    };
    for (const char *bad : {"--jobs=abc", "--jobs=-3", "--jobs=4x",
                            "--jobs=", "--jobs=0", "--jobs=4294967297"}) {
        EXPECT_EXIT(parse({bad}), testing::ExitedWithCode(2),
                    "--jobs: expected a positive integer")
            << bad;
    }
    // A trailing --jobs with no value is an error, not a positional.
    EXPECT_EXIT(parse({"--out=x.json", "--jobs"}), testing::ExitedWithCode(2),
                "--jobs: expected a positive integer job count, got \"\"");
    EXPECT_EXIT(parse({"--jobs", "many"}), testing::ExitedWithCode(2),
                "got \"many\"");
}

TEST(ParseJobsFlag, EnvironmentOverrideIsStrictToo)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const char *saved = std::getenv("RCHDROID_JOBS");
    const std::string previous = saved ? saved : "";
    ::setenv("RCHDROID_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    for (const char *bad : {"abc", "-3", "4x", ""}) {
        ::setenv("RCHDROID_JOBS", bad, 1);
        EXPECT_EXIT(defaultJobs(), testing::ExitedWithCode(2),
                    "RCHDROID_JOBS: expected a positive integer")
            << bad;
    }
    if (saved)
        ::setenv("RCHDROID_JOBS", previous.c_str(), 1);
    else
        ::unsetenv("RCHDROID_JOBS");
}

bool
statsIdentical(const RunningStat &a, const RunningStat &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.variance() == b.variance() && a.min() == b.min() &&
           a.max() == b.max();
}

TEST(ParallelDeterminism, MatrixIsBitIdenticalAcrossJobCounts)
{
    std::vector<HandlingCell> cells;
    for (int n : {2, 4, 8}) {
        const auto spec = apps::makeBenchmarkApp(n);
        cells.push_back({RuntimeChangeMode::Restart, spec, /*runs=*/3,
                         /*steady_changes=*/2});
        cells.push_back({RuntimeChangeMode::RchDroid, spec, /*runs=*/3,
                         /*steady_changes=*/2});
    }
    const auto serial = measureHandlingMatrix(cells, ParallelRunner(1));
    for (int jobs : {2, 4, 7}) {
        const auto fanned = measureHandlingMatrix(cells, ParallelRunner(jobs));
        ASSERT_EQ(fanned.size(), serial.size()) << "jobs=" << jobs;
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_TRUE(
                statsIdentical(serial[i].handling_ms, fanned[i].handling_ms))
                << "jobs=" << jobs << " cell=" << i;
            EXPECT_TRUE(statsIdentical(serial[i].init_ms, fanned[i].init_ms))
                << "jobs=" << jobs << " cell=" << i;
            EXPECT_EQ(serial[i].crashed, fanned[i].crashed)
                << "jobs=" << jobs << " cell=" << i;
        }
    }
}

TEST(ParallelDeterminism, RepeatedParallelRunsAgree)
{
    // The same matrix twice at the same jobs count: no run-to-run drift
    // from work stealing, thread timing, or slab reuse.
    std::vector<HandlingCell> cells = {
        {RuntimeChangeMode::RchDroid, apps::makeBenchmarkApp(4), /*runs=*/4,
         /*steady_changes=*/2},
    };
    const ParallelRunner runner(4);
    const auto first = measureHandlingMatrix(cells, runner);
    const auto second = measureHandlingMatrix(cells, runner);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(
            statsIdentical(first[i].handling_ms, second[i].handling_ms));
        EXPECT_TRUE(statsIdentical(first[i].init_ms, second[i].init_ms));
    }
}

} // namespace
} // namespace rchdroid::bench
