/**
 * @file
 * Golden statistics of the whole scenario catalogue: every scenario's
 * full ExplorerStats, its violations and its first violating schedule,
 * at depth 10 and at depth 12 (the repository benchmark's depth),
 * explored with the options rchdroid_mc uses by default.
 *
 * The explorer is deterministic, so any drift in these numbers is a
 * behaviour change of the search — reductions, oracles, the scenarios
 * or the simulator below them — and must be re-recorded on purpose.
 * The values were recorded when branches could still be forked from
 * copy-on-write checkpoints, and both ways of running a branch
 * reported them identically; `events_replayed` is the replay-from-root
 * figure.
 *
 * The replay-cost accounting is also checked against a reference: a
 * naive DFS written here on top of runExecution() alone, which charges
 * every branch the scheduler events its parent ran before the
 * divergence choice point. The explorer's naive mode (no reductions)
 * must agree with it on executions and on `events_replayed`.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "mc/execution.h"
#include "mc/explorer.h"
#include "mc/scenario.h"

namespace rchdroid::mc {
namespace {

struct GoldenStats
{
    std::uint64_t executions;
    std::uint64_t schedules_covered;
    std::uint64_t nodes;
    std::uint64_t distinct_states;
    std::uint64_t visited_hits;
    std::uint64_t sleep_skips;
    std::uint64_t mhp_prunes;
    std::uint64_t mhp_sleep_keeps;
    bool truncated;
    std::uint64_t events_replayed;
};

struct GoldenViolation
{
    const char *oracle;
    const char *summary;
    SimTime time;
};

struct Golden
{
    const char *scenario;
    int depth;
    GoldenStats stats;
    std::vector<GoldenViolation> violations;
    std::vector<int> first_violation_schedule;
};

constexpr const char *kSeededGcSummary =
    "GC reclaimed com.example.photos/.GalleryActivity (token 1) while "
    "AsyncTask \"thumbnailLoader\" still targets it";
constexpr SimTime kSeededGcTime = 2248290000;

const std::vector<Golden> &
goldens()
{
    static const std::vector<Golden> kGoldens = {
        {"quickstart", 10, {202, 27112, 168, 66, 102, 25, 0, 0, false, 2285}, {}, {}},
        {"login_form", 10, {125, 2488, 92, 41, 51, 12, 0, 0, false, 1461}, {}, {}},
        {"photo_gallery", 10, {42, 73, 27, 22, 5, 3, 0, 0, false, 527}, {}, {}},
        {"mail_navigation", 10, {54, 167, 38, 26, 12, 7, 0, 0, false, 1267}, {}, {}},
        {"gc_tuning", 10, {1, 1, 10, 10, 0, 0, 10, 0, false, 0}, {}, {}},
        {"seeded_gc", 10, {98, 305, 71, 48, 23, 12, 0, 0, false, 1266},
         {{"gc_live_async", kSeededGcSummary, kSeededGcTime}},
         {1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"reduction_demo", 10, {1, 1, 8, 8, 0, 0, 15, 0, false, 0}, {}, {}},
        {"quickstart", 12, {333, 53608, 265, 109, 156, 42, 0, 0, false, 4250}, {}, {}},
        {"login_form", 12, {184, 3793, 131, 61, 70, 20, 0, 0, false, 2403}, {}, {}},
        {"photo_gallery", 12, {51, 89, 33, 27, 6, 4, 0, 0, false, 692}, {}, {}},
        {"mail_navigation", 12, {71, 219, 50, 35, 15, 9, 0, 0, false, 1754}, {}, {}},
        {"gc_tuning", 12, {1, 1, 10, 10, 0, 0, 10, 0, false, 0}, {}, {}},
        {"seeded_gc", 12, {133, 409, 95, 66, 29, 18, 0, 0, false, 1884},
         {{"gc_live_async", kSeededGcSummary, kSeededGcTime}},
         {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
        {"reduction_demo", 12, {1, 1, 8, 8, 0, 0, 15, 0, false, 0}, {}, {}},
    };
    return kGoldens;
}

TEST(CatalogueStats, GoldensCoverEveryScenarioAtBothDepths)
{
    std::set<std::pair<std::string, int>> pinned;
    for (const Golden &golden : goldens())
        pinned.insert({golden.scenario, golden.depth});
    for (const Scenario &scenario : scenarioCatalog()) {
        EXPECT_TRUE(pinned.count({scenario.name, 10})) << scenario.name;
        EXPECT_TRUE(pinned.count({scenario.name, 12})) << scenario.name;
    }
    EXPECT_EQ(pinned.size(), 2 * scenarioCatalog().size());
}

TEST(CatalogueStats, EveryScenarioMatchesItsGolden)
{
    for (const Golden &golden : goldens()) {
        const std::string where =
            std::string(golden.scenario) + " @ depth " +
            std::to_string(golden.depth);
        const Scenario *scenario = findScenario(golden.scenario);
        ASSERT_NE(scenario, nullptr) << where;

        ExplorerOptions options;
        options.scenario = scenario;
        options.max_depth = golden.depth;
        if (!scenario->independence.empty())
            options.independence = &scenario->independence;
        const ExplorerReport report = explore(options);
        const ExplorerStats &stats = report.stats;
        const GoldenStats &want = golden.stats;

        EXPECT_EQ(stats.executions, want.executions) << where;
        EXPECT_EQ(stats.schedules_covered, want.schedules_covered) << where;
        EXPECT_EQ(stats.nodes, want.nodes) << where;
        EXPECT_EQ(stats.distinct_states, want.distinct_states) << where;
        EXPECT_EQ(stats.visited_hits, want.visited_hits) << where;
        EXPECT_EQ(stats.sleep_skips, want.sleep_skips) << where;
        EXPECT_EQ(stats.mhp_prunes, want.mhp_prunes) << where;
        EXPECT_EQ(stats.mhp_sleep_keeps, want.mhp_sleep_keeps) << where;
        EXPECT_EQ(stats.truncated, want.truncated) << where;
        EXPECT_EQ(stats.events_replayed, want.events_replayed) << where;

        // Kept for perfbench/ only; nothing may write them.
        EXPECT_EQ(stats.snapshots_taken, 0u) << where;
        EXPECT_EQ(stats.snapshot_restores, 0u) << where;


        ASSERT_EQ(report.violations.size(), golden.violations.size())
            << where;
        for (std::size_t i = 0; i < golden.violations.size(); ++i) {
            EXPECT_EQ(report.violations[i].oracle,
                      golden.violations[i].oracle)
                << where;
            EXPECT_EQ(report.violations[i].summary,
                      golden.violations[i].summary)
                << where;
            EXPECT_EQ(report.violations[i].time, golden.violations[i].time)
                << where;
        }
        EXPECT_EQ(report.first_violation_schedule,
                  golden.first_violation_schedule)
            << where;
    }
}

/** What a naive DFS pays: executions run and prefix events replayed. */
struct ReplayCost
{
    std::uint64_t executions = 0;
    std::uint64_t events_replayed = 0;
};

/**
 * Visits every option of every choice point below `level` of `spine`.
 * The option `spine` took is followed without a new execution; every
 * other one replays `prefix` plus that option from the root, and so
 * re-runs the events `spine` ran before this choice point.
 */
void
naiveWalk(ExecutionOptions &eo, const ExecutionResult &spine,
          std::size_t level, ReplayCost &cost)
{
    if (level >= spine.choice_points.size())
        return;
    const ChoicePoint &cp = spine.choice_points[level];
    for (int i = 0; i < static_cast<int>(cp.options.size()); ++i) {
        eo.schedule.push_back(i);
        if (i == cp.chosen) {
            naiveWalk(eo, spine, level + 1, cost);
        } else {
            const ExecutionResult branch = runExecution(eo);
            ++cost.executions;
            cost.events_replayed += cp.events_before;
            ASSERT_GT(branch.choice_points.size(), level);
            // Same prefix, same events: replay is deterministic.
            ASSERT_EQ(branch.choice_points[level].events_before,
                      cp.events_before);
            naiveWalk(eo, branch, level + 1, cost);
        }
        eo.schedule.pop_back();
    }
}

TEST(CatalogueStats, NaiveReplayCostMatchesReference)
{
    constexpr int kDepth = 4;
    std::uint64_t catalogue_replayed = 0;
    for (const Scenario &scenario : scenarioCatalog()) {
        ExecutionOptions eo;
        eo.scenario = &scenario;
        eo.max_choice_points = kDepth;
        eo.fingerprints = false;
        ReplayCost want;
        const ExecutionResult root = runExecution(eo);
        ++want.executions;
        naiveWalk(eo, root, 0, want);

        ExplorerOptions options;
        options.scenario = &scenario;
        options.max_depth = kDepth;
        options.reduction = false;
        const ExplorerStats stats = explore(options).stats;
        ASSERT_FALSE(stats.truncated) << scenario.name;
        EXPECT_EQ(stats.executions, want.executions) << scenario.name;
        EXPECT_EQ(stats.events_replayed, want.events_replayed)
            << scenario.name;
        catalogue_replayed += want.events_replayed;
    }
    EXPECT_GT(catalogue_replayed, 0u); // the walk did branch somewhere
}

} // namespace
} // namespace rchdroid::mc
