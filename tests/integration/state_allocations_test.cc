/**
 * @file
 * Allocation gate on instance-state snapshots: the exact number of heap
 * allocations of a warm full save of Benchmark32, of a warm RCHDroid
 * coin-flip episode of Benchmark32 and Benchmark128, and of a warm stock
 * restart episode of Benchmark32 and of a 32-EditText variant of it.
 * Each view memoises its last saved state (DESIGN.md §5d), so a warm
 * save re-links unchanged state instead of rebuilding it, and a restore
 * reads each nested bundle in place; a count above the pin means a
 * rebuild or a copy came back somewhere.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <utility>

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
 * A device whose benchmark app's async task has run, so every ImageView
 * carries user state, and which has already handled a few runtime
 * changes: coin flips under RCHDroid, relaunches under stock Android.
 */
struct WarmDevice
{
    explicit WarmDevice(apps::AppSpec app,
                        RuntimeChangeMode mode = RuntimeChangeMode::RchDroid)
        : spec(std::move(app))
    {
        SystemOptions options;
        options.mode = mode;
        // The count must not depend on RCHDROID_ANALYSIS.
        options.analysis_enabled = false;
        system = std::make_unique<AndroidSystem>(options);
        system->install(spec);
        system->launch(spec);
        system->clickUpdateButton(spec);
        system->runFor(seconds(6));
        for (int i = 0; i < 3; ++i)
            rotate();
    }

    /** One runtime change, handled to completion. */
    void
    rotate()
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
    WarmDevice device(apps::makeBenchmarkApp(views));
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
    WarmDevice device(apps::makeBenchmarkApp(views));
    const RchStats &stats = device.system->installed(device.spec).handler->stats();
    const std::uint64_t flips = stats.flips;

    const std::size_t before = g_allocations;
    device.rotate();
    const std::size_t allocations = g_allocations - before;
    EXPECT_EQ(stats.flips, flips + 1) << "the measured change was no flip";
    return allocations;
}

std::size_t
warmRestartAllocations(apps::AppSpec spec)
{
    WarmDevice device(std::move(spec), RuntimeChangeMode::Restart);
    ActivityThread &thread = device.system->threadFor(device.spec);
    const std::shared_ptr<Activity> previous = thread.foregroundActivity();

    const std::size_t before = g_allocations;
    device.rotate();
    const std::size_t allocations = g_allocations - before;
    EXPECT_NE(thread.foregroundActivity(), previous)
        << "the measured change was no relaunch";
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

// A stock relaunch saves the old instance, inflates the new one and
// restores the saved view states into it. Stock ImageViews save
// nothing, so Benchmark32's restore has no view state to read.
TEST(StateAllocations, WarmRestartOfBenchmark32IsPinned)
{
    EXPECT_EQ(warmRestartAllocations(apps::makeBenchmarkApp(32)), 76u);
}

// The same app with 32 EditTexts, which freeze their text by default:
// the restore reads each view's nested state in place. Copying each one
// out of the container (its two entries and the text) cost 300.
TEST(StateAllocations, WarmRestartOfEditText32IsPinned)
{
    apps::AppSpec spec = apps::makeBenchmarkApp(0);
    spec.name = "EditText32";
    spec.n_edit_texts = 32;
    EXPECT_EQ(warmRestartAllocations(std::move(spec)), 204u);
}

} // namespace
} // namespace rchdroid::sim
