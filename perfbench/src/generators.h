/**
 * @file
 * Seeded workload generators. Everything the simulator is asked to do
 * in a run — which apps, in which order, and the tape of runtime
 * changes each session plays — is drawn here from the seed before any
 * measurement starts. The simulator only ever receives these inputs.
 */
#ifndef RCHDROID_PERFBENCH_GENERATORS_H
#define RCHDROID_PERFBENCH_GENERATORS_H

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_spec.h"
#include "ams/atms.h"
#include "platform/time.h"
#include "rch/rch_config.h"

namespace perfbench {

enum class Workload : std::uint8_t {
    /** Stock restart handling over the corpus and benchmark apps. */
    RestartCorpus,
    /** RCHDroid flips, lazy migration and shadow GC on long sessions. */
    RchAsyncGc,
    /** Model checking of the scenario catalogue. */
    McCatalogue,
};

const char *workloadName(Workload workload);
/** @return false when `name` is not a workload. */
bool parseWorkload(const std::string &name, Workload *out);

/** One runtime change of a tape. Toggles always change the config. */
enum class Change : std::uint8_t {
    Rotate,
    /** `wm size 1080x1920` when not portrait-sized, else reset. */
    WmSize,
    /** en-US <-> fr-FR. */
    Locale,
    /** Hardware keyboard attach <-> detach. */
    Keyboard,
};

const char *changeName(Change change);

struct Step
{
    Change change = Change::Rotate;
    /** Tap the app's update button right before the change. */
    bool tap_before = false;
    /** Virtual time the session runs after the change is handled. */
    rchdroid::SimDuration dwell = 0;
};

/** One fresh simulated device playing one tape. */
struct Session
{
    /** Index into Inputs::apps, or into the scenario catalogue (mc). */
    std::size_t target = 0;
    std::vector<Step> tape;
};

struct Inputs
{
    Workload workload = Workload::RestartCorpus;
    std::uint64_t seed = 0;
    rchdroid::RuntimeChangeMode mode = rchdroid::RuntimeChangeMode::Restart;
    rchdroid::RchConfig rch;
    /** Corpus or benchmark apps the sessions install (sim workloads). */
    std::vector<rchdroid::apps::AppSpec> apps;
    /** One pass; a run repeats passes until its time is up. */
    std::vector<Session> sessions;
    /** Sessions (from the front) replayed under the tracer. */
    std::size_t traced_sessions = 0;
    /** Catalogue exploration order (mc). */
    std::vector<std::size_t> scenario_order;
    /** Choice points per schedule (mc). */
    int mc_depth = 12;
};

/** Draw a workload's inputs from its seed. Deterministic. */
Inputs generate(Workload workload, std::uint64_t seed);

/** Canonical text of the inputs: equal iff the inputs are equal. */
std::string describeInputs(const Inputs &inputs);

} // namespace perfbench

#endif // RCHDROID_PERFBENCH_GENERATORS_H
