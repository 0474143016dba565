/**
 * @file
 * Allocation gate on instance-state snapshots: the exact number of heap
 * allocations of a warm full save of Benchmark32 and of a warm RCHDroid
 * coin-flip episode of Benchmark32 and Benchmark128. Each view memoises
 * its last saved state (DESIGN.md §5d), so a warm save re-links
 * unchanged state instead of rebuilding it; a count above the pin means
 * the rebuild came back somewhere.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "sim/android_system.h"

/** Heap allocations made through operator new by this test binary. */
static std::size_t g_allocations = 0;

// The replacements pair malloc with free; GCC cannot see that across
// inlined call sites and warns.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace rchdroid::sim {
namespace {

/**
 * A Benchmark-n device under RCHDroid whose images were updated by the
 * app's async task, so every ImageView carries user state, and which
 * has already been through a few coin flips.
 */
struct WarmDevice
{
    explicit WarmDevice(int views) : spec(apps::makeBenchmarkApp(views))
    {
        SystemOptions options;
        options.mode = RuntimeChangeMode::RchDroid;
        // The count must not depend on RCHDROID_ANALYSIS.
        options.analysis_enabled = false;
        system = std::make_unique<AndroidSystem>(options);
        system->install(spec);
        system->launch(spec);
        system->clickUpdateButton(spec);
        system->runFor(seconds(6));
        for (int i = 0; i < 3; ++i)
            flip();
    }

    /** One runtime change, handled to completion. */
    void
    flip()
    {
        system->rotate();
        EXPECT_TRUE(system->waitHandlingComplete());
    }

    apps::AppSpec spec;
    std::unique_ptr<AndroidSystem> system;
};

std::size_t
warmFullSaveAllocations(int views)
{
    WarmDevice device(views);
    std::shared_ptr<Activity> foreground =
        device.system->threadFor(device.spec).foregroundActivity();
    EXPECT_NE(foreground, nullptr);
    (void)foreground->saveInstanceStateNow(/*full=*/true);

    const std::size_t before = g_allocations;
    const Bundle saved = foreground->saveInstanceStateNow(/*full=*/true);
    const std::size_t allocations = g_allocations - before;
    EXPECT_FALSE(saved.getBundle("views").empty());
    return allocations;
}

std::size_t
warmFlipAllocations(int views)
{
    WarmDevice device(views);
    const RchStats &stats = device.system->installed(device.spec).handler->stats();
    const std::uint64_t flips = stats.flips;

    const std::size_t before = g_allocations;
    device.flip();
    const std::size_t allocations = g_allocations - before;
    EXPECT_EQ(stats.flips, flips + 1) << "the measured change was no flip";
    return allocations;
}

// The save allocates one container entry per ImageView, which links
// the view's memoised state, plus the "views" and "app" bundles and the
// result's two entries: 32 + 4. Rebuilding every view's state cost 164.
TEST(StateAllocations, WarmFullSaveOfBenchmark32IsPinned)
{
    EXPECT_EQ(warmFullSaveAllocations(32), 36u);
}

// A coin flip snapshots the outgoing instance and syncs the incoming
// one through equal-value setters, which keep the memo; the rest is the
// episode's messages, binder hops and trace records. Rebuilding every
// view's state cost 225 and 761.
TEST(StateAllocations, WarmFlipOfBenchmark32IsPinned)
{
    EXPECT_EQ(warmFlipAllocations(32), 95u);
}

TEST(StateAllocations, WarmFlipOfBenchmark128IsPinned)
{
    EXPECT_EQ(warmFlipAllocations(128), 219u);
}

} // namespace
} // namespace rchdroid::sim
