#include "explore.h"

#include <sys/prctl.h>
#include <sys/wait.h>

#include <cerrno>

namespace perfbench {

Exploration
exploreScenario(const rchdroid::mc::Scenario &scenario, int depth,
                bool run_analysis)
{
    rchdroid::mc::ExplorerOptions options;
    options.scenario = &scenario;
    options.max_depth = depth;
    options.run_analysis = run_analysis;
    if (!scenario.independence.empty())
        options.independence = &scenario.independence;
    Exploration out;
    const std::int64_t start = hostNs();
    out.report = rchdroid::mc::explore(options);
    out.host_ns = hostNs() - start;
    reapExplorerProcesses(false);
    return out;
}

void
checkVerdict(Checks &checks, const rchdroid::mc::Scenario &scenario,
             const rchdroid::mc::ExplorerReport &report)
{
    const std::size_t expected = scenario.name == "seeded_gc" ? 1 : 0;
    checks.expect(report.violations.size() == expected,
                  scenario.name + ": " + std::to_string(report.violations.size()) +
                      " violation(s), expected " + std::to_string(expected));
    checks.expect(!report.stats.truncated, scenario.name + ": exploration truncated");
}

void
digestReport(Digest &digest, const rchdroid::mc::ExplorerReport &report)
{
    const auto &stats = report.stats;
    digest.mix(stats.executions);
    digest.mix(stats.schedules_covered);
    digest.mix(stats.nodes);
    digest.mix(stats.distinct_states);
    digest.mix(stats.visited_hits);
    digest.mix(stats.sleep_skips);
    digest.mix(stats.mhp_prunes);
    for (const auto &violation : report.violations) {
        digest.mixString(violation.oracle);
        digest.mixString(violation.summary);
        digest.mix(static_cast<std::uint64_t>(violation.time));
    }
    for (int choice : report.first_violation_schedule)
        digest.mix(static_cast<std::uint64_t>(choice));
}

void
adoptExplorerProcesses()
{
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
}

void
reapExplorerProcesses(bool wait_all)
{
    for (;;) {
        const pid_t pid = ::waitpid(-1, nullptr, wait_all ? 0 : WNOHANG);
        if (pid > 0 || (pid < 0 && errno == EINTR))
            continue;
        return; // 0: none ended yet; -1/ECHILD: no descendants left
    }
}

} // namespace perfbench
