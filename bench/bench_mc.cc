/**
 * @file
 * Model-checker throughput ledger: one replay-from-root exploration of
 * every catalogue scenario, timed.
 *
 * For each scenario the explorer runs once with the options
 * rchdroid_mc uses by default (sleep sets, visited-state pruning, and
 * the scenario's static independence spec when it has one). The binary
 * prints and writes (--out=PATH, default BENCH_mc.json) the
 * deterministic counters — executions, schedules covered, truncation,
 * violations, events replayed — next to the wall time and schedules/s.
 * The CI perf-smoke job archives the file and gates it against
 * bench/BENCH_mc.baseline.json with tools/compare_mc.py: the counters
 * must match the baseline exactly, wall clock is advisory.
 *
 * "Events replayed" is the prefix cost of replay-from-root: for every
 * execution after the first, the scheduler events it re-ran before
 * reaching its divergence choice point.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "mc/explorer.h"
#include "mc/scenario.h"

namespace {

using rchdroid::mc::ExplorerOptions;
using rchdroid::mc::ExplorerReport;
using rchdroid::mc::Scenario;

double
perSecond(std::uint64_t count, double wall_ms)
{
    return wall_ms > 0.0 ? static_cast<double>(count) / (wall_ms / 1000.0)
                         : 0.0;
}

double
perExecution(std::uint64_t events, std::uint64_t executions)
{
    return executions > 0
               ? static_cast<double>(events) /
                     static_cast<double>(executions)
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_mc.json";
    int depth = 10;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out_path = arg.substr(std::strlen("--out="));
        } else if (arg.rfind("--depth=", 0) == 0) {
            depth = std::atoi(arg.c_str() + std::strlen("--depth="));
        } else {
            std::fprintf(stderr,
                         "usage: bench_mc [--out=PATH] [--depth=N]\n");
            return 2;
        }
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
    }

    std::printf("\n=== bench_mc: replay-from-root exploration of the "
                "catalogue (depth %d) ===\n",
                depth);
    std::fprintf(out, "{\n  \"depth\": %d,\n  \"scenarios\": {\n", depth);

    double total_ms = 0.0;
    const auto &catalogue = rchdroid::mc::scenarioCatalog();
    for (std::size_t s = 0; s < catalogue.size(); ++s) {
        const Scenario &scenario = catalogue[s];
        ExplorerOptions options;
        options.scenario = &scenario;
        options.max_depth = depth;
        if (!scenario.independence.empty())
            options.independence = &scenario.independence;
        const auto start = std::chrono::steady_clock::now();
        const ExplorerReport report = explore(options);
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        total_ms += wall_ms;

        const auto &stats = report.stats;
        std::printf("%-16s schedules %llu  exec %llu  replayed/exec %.1f"
                    "  violations %zu  wall %.1f ms  %.0f schedules/s\n",
                    scenario.name.c_str(),
                    static_cast<unsigned long long>(stats.schedules_covered),
                    static_cast<unsigned long long>(stats.executions),
                    perExecution(stats.events_replayed, stats.executions),
                    report.violations.size(), wall_ms,
                    perSecond(stats.schedules_covered, wall_ms));
        std::fprintf(
            out,
            "    \"%s\": {\"schedules_covered\": %llu, \"executions\": "
            "%llu, \"truncated\": %s, \"violations\": %zu, "
            "\"events_replayed\": %llu, \"replayed_per_execution\": %.3f, "
            "\"wall_ms\": %.3f, \"schedules_per_sec\": %.1f}%s\n",
            scenario.name.c_str(),
            static_cast<unsigned long long>(stats.schedules_covered),
            static_cast<unsigned long long>(stats.executions),
            stats.truncated ? "true" : "false", report.violations.size(),
            static_cast<unsigned long long>(stats.events_replayed),
            perExecution(stats.events_replayed, stats.executions), wall_ms,
            perSecond(stats.schedules_covered, wall_ms),
            s + 1 < catalogue.size() ? "," : "");
    }

    std::fprintf(out, "  },\n  \"totals\": {\"wall_ms\": %.3f}\n}\n",
                 total_ms);
    std::fclose(out);
    std::printf("total wall %.1f ms\nwrote %s\n", total_ms, out_path.c_str());
    return 0;
}
