/**
 * @file
 * Golden-file pin of RCHDroid's shadow snapshots: 15 benchmark apps
 * (1–128 ImageViews), the TP-37 set and the top-100 set each run under
 * RCHDroid on one fixed tape of rotations, locale switches and update
 * taps. After every step the shadow instance's snapshot
 * (Activity::shadowSnapshot) is serialised through Parcel and the
 * bytes are hashed with FNV-1a 64. Any change to what a shadow entry
 * saves, or to its wire form, shows up as a changed hash on the app's
 * line.
 *
 * After an intentional change, regenerate with
 *
 *   RCHDROID_UPDATE_GOLDEN=1 ./tests/integration/snapshot_golden_test
 *
 * and review the diff of tests/integration/snapshot_golden.txt.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "os/parcel.h"
#include "sim/android_system.h"

namespace rchdroid::sim {
namespace {

std::vector<apps::AppSpec>
goldenSpecs()
{
    std::vector<apps::AppSpec> specs;
    for (int n : {1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 64, 80, 96, 112, 128})
        specs.push_back(apps::makeBenchmarkApp(n));
    for (auto set : {apps::tp37(), apps::top100()}) {
        for (apps::AppSpec &spec : set)
            specs.push_back(std::move(spec));
    }
    return specs;
}

/** One tape step: drive the device, then let the change settle. */
struct Step
{
    const char *label;
    std::function<void(AndroidSystem &, const apps::AppSpec &)> drive;
};

std::vector<Step>
goldenTape()
{
    auto settle = [](AndroidSystem &system, SimDuration dwell) {
        system.waitHandlingComplete();
        system.runFor(dwell);
    };
    return {
        {"rotate",
         [=](AndroidSystem &s, const apps::AppSpec &) {
             s.rotate();
             settle(s, seconds(1));
         }},
        // The update task is still running when the change lands, so it
        // finishes on the shadow instance and migrates lazily.
        {"tap+rotate",
         [=](AndroidSystem &s, const apps::AppSpec &spec) {
             s.clickUpdateButton(spec);
             s.runFor(milliseconds(200));
             s.rotate();
             settle(s, seconds(6));
         }},
        {"locale",
         [=](AndroidSystem &s, const apps::AppSpec &) {
             s.setLocale("fr-FR");
             settle(s, seconds(1));
         }},
        {"rotate",
         [=](AndroidSystem &s, const apps::AppSpec &) {
             s.rotate();
             settle(s, seconds(1));
         }},
        {"tap,rotate",
         [=](AndroidSystem &s, const apps::AppSpec &spec) {
             s.clickUpdateButton(spec);
             s.runFor(seconds(6));
             s.rotate();
             settle(s, seconds(1));
         }},
        {"locale",
         [=](AndroidSystem &s, const apps::AppSpec &) {
             s.setLocale("en-US");
             settle(s, seconds(1));
         }},
        {"rotate",
         [=](AndroidSystem &s, const apps::AppSpec &) {
             s.rotate();
             settle(s, seconds(1));
         }},
    };
}

/** FNV-1a 64 over a byte buffer. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** `<hash>:<bytes>` of the shadow snapshot held after a step, or "-". */
std::string
snapshotEntry(AndroidSystem &system, const apps::AppSpec &spec)
{
    std::shared_ptr<Activity> shadow = system.threadFor(spec).shadowActivity();
    if (!shadow || !shadow->hasShadowSnapshot())
        return "-";
    Parcel parcel;
    parcel.writeBundle(shadow->shadowSnapshot());
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << fnv1a(parcel.data()) << std::dec << ':' << parcel.sizeBytes();
    return os.str();
}

/** Run every golden spec through the tape; one line per app. */
std::string
snapshotDump()
{
    std::ostringstream os;
    os << "# app";
    for (const Step &step : goldenTape())
        os << ' ' << step.label;
    os << '\n';
    for (const apps::AppSpec &spec : goldenSpecs()) {
        SystemOptions options;
        options.mode = RuntimeChangeMode::RchDroid;
        AndroidSystem system(options);
        system.install(spec);
        system.launch(spec);
        system.applyUserState(spec);
        os << spec.name;
        for (const Step &step : goldenTape()) {
            step.drive(system, spec);
            os << ' ' << snapshotEntry(system, spec);
        }
        os << '\n';
    }
    return os.str();
}

std::string
goldenPath()
{
    return RCHDROID_SNAPSHOT_GOLDEN;
}

TEST(SnapshotGolden, ShadowSnapshotsMatchTheCheckedInHashes)
{
    const std::string actual = snapshotDump();

    if (std::getenv("RCHDROID_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << actual;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << goldenPath()
                    << " — run with RCHDROID_UPDATE_GOLDEN=1 once";
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::istringstream want(buffer.str()), got(actual);
    std::string want_line, got_line;
    int line = 0;
    while (std::getline(want, want_line)) {
        ++line;
        ASSERT_TRUE(std::getline(got, got_line))
            << "snapshot dump ends early, before golden line " << line;
        ASSERT_EQ(got_line, want_line)
            << "snapshot dump diverges from the golden at line " << line
            << " — if the change is intentional, regenerate with "
            << "RCHDROID_UPDATE_GOLDEN=1 and review the diff";
    }
    EXPECT_FALSE(std::getline(got, got_line))
        << "snapshot dump has lines beyond the golden: " << got_line;
}

} // namespace
} // namespace rchdroid::sim
