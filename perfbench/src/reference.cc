/**
 * @file
 * rch_perfbench_ref: the host-speed reference.
 *
 *   rch_perfbench_ref
 *
 * Runs a fixed kernel kReps times and prints the median time of one
 * repetition in microseconds. The kernel is string-keyed map
 * updates and small heap blocks, the simulator's kind of work. The
 * binary links nothing from the simulator and runs in a process of its
 * own, so a change to the simulator cannot move it. On a shared host
 * its time moves with the neighbours' load much as the workloads' does.
 * The driver runs it on its own CPU between measurement slices and
 * reports host metrics at a nominal reference time of 1000 us
 * (referenceUs() in common.h).
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace {

constexpr int kReps = 9;

/** Keeps the kernel's result alive. */
volatile std::uint64_t sink = 0;

std::int64_t
kernelNs()
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    std::map<std::string, std::uint64_t> table;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table["k" + std::to_string(x % 1024)] += x;
    }
    std::vector<std::unique_ptr<std::vector<int>>> blocks;
    for (int i = 0; i < 2000; ++i)
        blocks.push_back(std::make_unique<std::vector<int>>(16 + i % 48, i));
    std::uint64_t sum = 0;
    for (const auto &[key, value] : table)
        sum += value + key.size();
    for (const auto &block : blocks)
        sum += static_cast<std::uint64_t>(block->front());
    sink = sum;
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
        .count();
}

} // namespace

int
main()
{
    std::vector<std::int64_t> ns(kReps);
    for (auto &t : ns)
        t = kernelNs();
    std::nth_element(ns.begin(), ns.begin() + kReps / 2, ns.end());
    std::printf("%.3f\n", static_cast<double>(ns[kReps / 2]) / 1e3);
    return 0;
}
