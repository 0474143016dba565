/**
 * @file
 * The model-checking side of mc_catalogue: one timed mc::explore per
 * scenario, its verdict check and its contribution to the digest.
 */
#ifndef RCHDROID_PERFBENCH_EXPLORE_H
#define RCHDROID_PERFBENCH_EXPLORE_H

#include "common.h"
#include "mc/explorer.h"
#include "mc/scenario.h"

namespace perfbench {

struct Exploration
{
    rchdroid::mc::ExplorerReport report;
    std::int64_t host_ns = 0;
};

/**
 * Explore one scenario at `depth` with the explorer's default options
 * and the scenario's own independence spec, as rchdroid_mc does.
 */
Exploration exploreScenario(const rchdroid::mc::Scenario &scenario, int depth,
                            bool run_analysis = true);

/** seeded_gc must report exactly one violation, every other none. */
void checkVerdict(Checks &checks, const rchdroid::mc::Scenario &scenario,
                  const rchdroid::mc::ExplorerReport &report);

void digestReport(Digest &digest, const rchdroid::mc::ExplorerReport &report);

/**
 * Make this process the reaper of every process the explorer's
 * snapshot layer forks, so that its orphans end as our children rather
 * than as zombies of init.
 */
void adoptExplorerProcesses();

/**
 * Reap the explorer's ended processes; with `wait_all`, block until
 * every descendant has ended.
 */
void reapExplorerProcesses(bool wait_all);

} // namespace perfbench

#endif // RCHDROID_PERFBENCH_EXPLORE_H
