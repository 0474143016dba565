#include "generators.h"

#include <algorithm>
#include <cmath>

#include "apps/corpus.h"
#include "mc/scenario.h"
#include "platform/rng.h"

namespace perfbench {

using rchdroid::Rng;
using rchdroid::SimDuration;
using rchdroid::apps::AppSpec;

namespace {

/** Sessions per app in one restart_corpus pass. */
constexpr int kRestartSessionsPerApp = 3;
/** Benchmark sizes of restart_corpus (the §5.1 range of Fig. 10). */
constexpr int kRestartBenchmarkMaxViews = 32;
/** RCH sessions per app size in one pass, and changes per session. */
constexpr int kRchSessionsPerApp = 4;
constexpr int kRchChangesPerSession = 60;
/** Fig. 11 shape: exponential arrivals, 10 s mean. */
constexpr double kRchMeanGapSeconds = 10.0;
/** Share of RCH changes preceded by an update-button tap. */
constexpr double kRchTapShare = 0.25;
/** Replay rounds of the catalogue per mc pass. */
constexpr int kMcReplayRounds = 100;

template <typename T>
void
shuffle(std::vector<T> &items, Rng &rng)
{
    for (std::size_t i = items.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.nextInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(items[i - 1], items[j]);
    }
}

Inputs
restartCorpus(std::uint64_t seed)
{
    Inputs in;
    in.workload = Workload::RestartCorpus;
    in.seed = seed;
    in.mode = rchdroid::RuntimeChangeMode::Restart;
    for (auto &spec : rchdroid::apps::tp37())
        in.apps.push_back(std::move(spec));
    for (auto &spec : rchdroid::apps::top100())
        in.apps.push_back(std::move(spec));
    for (int n = 1; n <= kRestartBenchmarkMaxViews; ++n)
        in.apps.push_back(rchdroid::apps::makeBenchmarkApp(n));

    Rng rng(seed ^ 0x5e551075ULL);
    // Every app appears once per round, so the app mix of a pass is the
    // same for every seed and only order and tapes vary.
    std::vector<std::size_t> order(in.apps.size());
    for (int round = 0; round < kRestartSessionsPerApp; ++round) {
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng);
        for (std::size_t app : order) {
            Session session;
            session.target = app;
            const bool async_on_tap =
                in.apps[app].async.trigger ==
                rchdroid::apps::AsyncTrigger::OnButtonClick;
            // The Table 3/5 protocol opens with `wm size`; then one of
            // each runtime change in seeded order, so every pass holds
            // the same changes and only their order and context vary.
            std::vector<Change> changes = {Change::Rotate, Change::WmSize,
                                           Change::Locale, Change::Keyboard};
            shuffle(changes, rng);
            changes.insert(changes.begin(), Change::WmSize);
            for (std::size_t k = 0; k < changes.size(); ++k) {
                Step step;
                step.change = changes[k];
                // Benchmark apps only show their stock issue when the
                // AsyncTask is in flight across a restart.
                step.tap_before = k == 0 && async_on_tap;
                step.dwell = rchdroid::seconds(1);
                session.tape.push_back(step);
            }
            in.sessions.push_back(std::move(session));
        }
    }
    in.traced_sessions = in.apps.size();
    return in;
}

Inputs
rchAsyncGc(std::uint64_t seed)
{
    Inputs in;
    in.workload = Workload::RchAsyncGc;
    in.seed = seed;
    in.mode = rchdroid::RuntimeChangeMode::RchDroid;
    // Paper thresholds (THRESH_T 50 s, THRESH_F 4/min), 1 s GC ticks.
    in.rch.gc_interval = rchdroid::seconds(1);

    Rng rng(seed ^ 0x0a5c9cULL);
    // Always 1, 32 and 128 views, plus six sizes on each side of 32,
    // each moved by a seeded -1..+1. With 32 the middle app, per-app
    // medians cannot fall into the gap between two apps' clusters.
    std::vector<int> sizes = {1, 32, 128};
    for (int base : {3, 5, 8, 12, 17, 24, 42, 52, 64, 78, 96, 112})
        sizes.push_back(base + static_cast<int>(rng.nextInt(-1, 1)));
    std::sort(sizes.begin(), sizes.end());
    for (int n : sizes)
        in.apps.push_back(rchdroid::apps::makeBenchmarkApp(n));

    std::vector<std::size_t> order(in.apps.size());
    for (int round = 0; round < kRchSessionsPerApp; ++round) {
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        shuffle(order, rng);
        for (std::size_t app : order) {
            Session session;
            session.target = app;
            for (int k = 0; k < kRchChangesPerSession; ++k) {
                Step step;
                step.change = Change::Rotate;
                step.tap_before = rng.nextBool(kRchTapShare);
                const double gap = -kRchMeanGapSeconds *
                                   std::log(1.0 - rng.nextDouble());
                step.dwell = std::max<SimDuration>(
                    rchdroid::milliseconds(50),
                    static_cast<SimDuration>(gap * 1e9));
                session.tape.push_back(step);
            }
            in.sessions.push_back(std::move(session));
        }
    }
    in.traced_sessions = in.apps.size();
    return in;
}

Change
changeFor(rchdroid::mc::InjectionKind kind)
{
    switch (kind) {
    case rchdroid::mc::InjectionKind::Rotate:
        return Change::Rotate;
    case rchdroid::mc::InjectionKind::WmSizeToggle:
        return Change::WmSize;
    case rchdroid::mc::InjectionKind::LocaleToggle:
        return Change::Locale;
    }
    return Change::Rotate;
}

Inputs
mcCatalogue(std::uint64_t seed)
{
    Inputs in;
    in.workload = Workload::McCatalogue;
    in.seed = seed;
    in.mode = rchdroid::RuntimeChangeMode::RchDroid;
    const auto &catalogue = rchdroid::mc::scenarioCatalog();

    Rng rng(seed ^ 0x3c0de1ULL);
    in.scenario_order.resize(catalogue.size());
    for (std::size_t i = 0; i < catalogue.size(); ++i)
        in.scenario_order[i] = i;
    shuffle(in.scenario_order, rng);

    // Default-schedule replays: each scenario's own setup, then a tape
    // of its own injections with 1 s dwells.
    for (int round = 0; round < kMcReplayRounds; ++round) {
        for (std::size_t s : in.scenario_order) {
            const auto &scenario = catalogue[s];
            if (scenario.injections.empty())
                continue;
            Session session;
            session.target = s;
            for (int k = 0; k < scenario.max_injections; ++k) {
                Step step;
                const auto pick = static_cast<std::size_t>(rng.nextInt(
                    0, static_cast<std::int64_t>(scenario.injections.size()) - 1));
                step.change = changeFor(scenario.injections[pick]);
                step.dwell = rchdroid::seconds(1);
                session.tape.push_back(step);
            }
            in.sessions.push_back(std::move(session));
        }
    }
    in.traced_sessions = in.sessions.size() / kMcReplayRounds;
    return in;
}

} // namespace

const char *
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::RestartCorpus:
        return "restart_corpus";
    case Workload::RchAsyncGc:
        return "rch_async_gc";
    case Workload::McCatalogue:
        return "mc_catalogue";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::RestartCorpus, Workload::RchAsyncGc,
                       Workload::McCatalogue}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

const char *
changeName(Change change)
{
    switch (change) {
    case Change::Rotate:
        return "rotate";
    case Change::WmSize:
        return "wm_size";
    case Change::Locale:
        return "locale";
    case Change::Keyboard:
        return "keyboard";
    }
    return "?";
}

Inputs
generate(Workload workload, std::uint64_t seed)
{
    switch (workload) {
    case Workload::RestartCorpus:
        return restartCorpus(seed);
    case Workload::RchAsyncGc:
        return rchAsyncGc(seed);
    case Workload::McCatalogue:
        return mcCatalogue(seed);
    }
    return {};
}

std::string
describeInputs(const Inputs &inputs)
{
    std::string out = std::string(workloadName(inputs.workload)) + " seed " +
                      std::to_string(inputs.seed) + "\n";
    for (const auto &spec : inputs.apps)
        out += "app " + spec.name + "\n";
    for (std::size_t s : inputs.scenario_order)
        out += "scenario " + std::to_string(s) + "\n";
    for (const auto &session : inputs.sessions) {
        out += "session " + std::to_string(session.target) + ":";
        for (const auto &step : session.tape) {
            out += std::string(" ") + changeName(step.change);
            if (step.tap_before)
                out += "+tap";
            out += "@" + std::to_string(step.dwell);
        }
        out += "\n";
    }
    return out;
}

} // namespace perfbench
