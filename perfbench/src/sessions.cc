#include "sessions.h"

#include <cmath>
#include <memory>
#include <optional>

#include "apps/user_driver.h"
#include "mc/scenario.h"
#include "sim/android_system.h"

namespace perfbench {

using namespace rchdroid;

namespace {

constexpr double kMb = 1024.0 * 1024.0;

/** Fig. 10 anchors (paper §5.3), virtual ms. */
constexpr double kPaperRestartMs = 141.8;
constexpr double kPaperFlipMs = 89.2;
constexpr double kPaperInit1Ms = 154.6;
constexpr double kPaperInit32Ms = 180.2;
constexpr double kPaperMigration1Ms = 8.6;
constexpr double kPaperMigration32Ms = 20.2;

/** Sums over every installed app process of one device. */
struct DeviceSums
{
    std::uint64_t resource_loads = 0;
    SimDuration resource_cost = 0;
    std::uint64_t layout_loads = 0;
    std::uint64_t live_activities = 0;
    std::uint64_t heap_bytes = 0;
    bool crashed = false;
    RchStats rch;
};

void
addRch(RchStats &into, const RchStats &s)
{
    into.runtime_changes += s.runtime_changes;
    into.init_launches += s.init_launches;
    into.flips += s.flips;
    into.views_mapped += s.views_mapped;
    into.views_unmatched += s.views_unmatched;
    into.views_migrated += s.views_migrated;
    into.gc_collections += s.gc_collections;
    into.gc_keeps += s.gc_keeps;
}

DeviceSums
sumDevice(sim::AndroidSystem &system)
{
    DeviceSums sums;
    for (const auto &[process, app] : system.installedApps()) {
        ActivityThread &thread = *app->thread;
        const ResourceLoadStats &loads = thread.resources().stats();
        sums.resource_loads += loads.string_loads + loads.drawable_loads +
                               loads.layout_loads + loads.dimension_loads;
        sums.resource_cost += loads.total_cost;
        sums.layout_loads += loads.layout_loads;
        sums.live_activities += thread.liveActivityCount();
        sums.heap_bytes += thread.totalHeapBytes();
        sums.crashed = sums.crashed || thread.crashed();
        if (app->handler)
            addRch(sums.rch, app->handler->stats());
    }
    return sums;
}

/** Apply one tape change; every change alters the configuration. */
void
applyChange(sim::AndroidSystem &system, Change change)
{
    const Configuration config = system.currentConfiguration();
    switch (change) {
    case Change::Rotate:
        system.rotate();
        return;
    case Change::WmSize:
        if (config.screen_width_px == 1080 && config.screen_height_px == 1920)
            system.wmSizeReset();
        else
            system.wmSize(1080, 1920);
        return;
    case Change::Locale:
        system.setLocale(config.locale == "fr-FR" ? "en-US" : "fr-FR");
        return;
    case Change::Keyboard:
        system.setKeyboardAttached(config.keyboard != KeyboardState::Attached);
        return;
    }
}

bool
isBenchmarkApp(const apps::AppSpec *spec)
{
    return spec != nullptr && spec->name.rfind("Benchmark", 0) == 0;
}

} // namespace

void
VirtualTotals::addAnchor(const std::string &name, double paper_ms,
                         double measured_ms)
{
    Anchor &anchor = anchors[name];
    anchor.paper_ms = paper_ms;
    anchor.sum_ms += measured_ms;
    ++anchor.count;
}

double
VirtualTotals::paperErrPct() const
{
    double sum = 0.0;
    int hit = 0;
    for (const auto &[name, anchor] : anchors) {
        if (anchor.count == 0)
            continue;
        const double mean = anchor.sum_ms / static_cast<double>(anchor.count);
        sum += std::fabs(mean - anchor.paper_ms) / anchor.paper_ms * 100.0;
        ++hit;
    }
    return hit > 0 ? sum / hit : 0.0;
}

void
playSession(PlayContext &ctx, const Session &session)
{
    const Inputs &in = *ctx.inputs;
    SpanLog &spans = *ctx.spans;
    const bool mc = in.workload == Workload::McCatalogue;
    const mc::Scenario *scenario =
        mc ? &mc::scenarioCatalog()[session.target] : nullptr;
    const apps::AppSpec *spec = mc ? nullptr : &in.apps[session.target];
    const std::string label = mc ? scenario->name : spec->name;

    Span session_span(spans, "session");
    std::unique_ptr<sim::AndroidSystem> system;
    {
        Span span(spans, "system_ctor");
        sim::SystemOptions options = mc ? scenario->make_options()
                                        : sim::SystemOptions{};
        if (!mc) {
            options.mode = in.mode;
            options.rch = in.rch;
        }
        // Pinned: RCHDROID_ANALYSIS must not change what a run does.
        options.analysis_enabled = false;
        system = std::make_unique<sim::AndroidSystem>(options);
    }
    if (mc) {
        Span span(spans, "install_launch");
        scenario->setup(*system);
    } else {
        {
            Span span(spans, "install");
            system->install(*spec);
        }
        {
            Span span(spans, "launch");
            system->launch(*spec);
        }
        {
            Span span(spans, "state");
            system->applyUserState(*spec);
        }
    }

    const DeviceSums start = sumDevice(*system);
    const std::size_t trace_start = system->trace().events().size();
    const bool anchor_sizes =
        isBenchmarkApp(spec) &&
        (spec->n_image_views == 1 || spec->n_image_views == 32);
    std::uint64_t episodes = 0;
    double virt_sum_ms = 0.0;
    bool crashed = false;
    SimTime images_due = 0;

    auto checkImages = [&] {
        auto foreground = system->foregroundApp(*spec);
        if (ctx.checks) {
            ctx.checks->expect(foreground && apps::imagesUpdatedByAsync(*foreground),
                               label + ": images not updated by the tapped AsyncTask");
        }
        images_due = 0;
    };

    for (const Step &step : session.tape) {
        if (step.tap_before && spec != nullptr) {
            Span span(spans, "tap");
            system->clickUpdateButton(*spec);
            // Under RCHDroid the task must land on the current
            // foreground; under restart it is the stock issue.
            if (in.mode == RuntimeChangeMode::RchDroid)
                images_due = system->scheduler().now() + spec->async.duration +
                             milliseconds(500);
        }
        const DeviceSums before = ctx.virt ? sumDevice(*system) : DeviceSums{};
        const std::int64_t t0 = hostNs();
        bool ok;
        {
            Span span(spans, "change_wait");
            applyChange(*system, step.change);
            ok = system->waitHandlingComplete();
        }
        const std::int64_t t1 = hostNs();
        if (!ok) {
            crashed = sumDevice(*system).crashed;
            if (in.mode == RuntimeChangeMode::RchDroid && ctx.checks)
                ctx.checks->expect(false, label + ": change not handled (" +
                                              (crashed ? "crash" : "timeout") + ")");
            break;
        }
        ++episodes;
        if (ctx.host_us)
            ctx.host_us->add(t1 - t0);
        const double handling_ms = system->lastHandlingMs();
        virt_sum_ms += handling_ms;
        if (ctx.virt) {
            const DeviceSums after = sumDevice(*system);
            ctx.virt->handling_ms.add(handling_ms);
            ctx.virt->heap_mb_sum += static_cast<double>(after.heap_bytes) / kMb;
            ++ctx.virt->heap_samples;
            const bool flip = after.rch.flips > before.rch.flips;
            const bool init = after.rch.init_launches > before.rch.init_launches;
            if (in.mode == RuntimeChangeMode::Restart && isBenchmarkApp(spec) &&
                step.change == Change::Rotate)
                ctx.virt->addAnchor("fig10a_android10", kPaperRestartMs, handling_ms);
            if (flip && (mc || anchor_sizes))
                ctx.virt->addAnchor("fig10a_flip", kPaperFlipMs, handling_ms);
            if (init && anchor_sizes) {
                const bool one = spec->n_image_views == 1;
                ctx.virt->addAnchor(one ? "fig10a_init_1" : "fig10a_init_32",
                                    one ? kPaperInit1Ms : kPaperInit32Ms,
                                    handling_ms);
            }
        }
        if (ctx.layers) {
            ctx.layers->live_activities_max =
                std::max<std::uint64_t>(ctx.layers->live_activities_max,
                                        sumDevice(*system).live_activities);
        }
        {
            Span span(spans, "gap");
            system->runFor(step.dwell);
        }
        if (images_due != 0 && system->scheduler().now() >= images_due)
            checkImages();
    }

    bool outcome_issue = crashed;
    if (!mc) {
        Span span(spans, "verify");
        if (images_due != 0 && !crashed) {
            if (images_due > system->scheduler().now())
                system->runFor(images_due - system->scheduler().now());
            checkImages();
        }
        if (in.mode == RuntimeChangeMode::Restart) {
            // Let in-flight AsyncTasks land before observing the state.
            system->runFor(spec->async.duration + seconds(1));
            outcome_issue = !system->verifyCriticalState(*spec).preserved;
            if (ctx.checks) {
                ctx.checks->expect(outcome_issue == spec->expect_issue_stock,
                                   label + ": stock outcome disagrees with its table row");
            }
        } else if (ctx.checks) {
            ctx.checks->expect(!sumDevice(*system).crashed, label + ": crashed");
        }
    } else {
        Span span(spans, "verify");
        system->runFor(scenario->tail);
        const auto failure =
            scenario->final_check ? scenario->final_check(*system) : std::nullopt;
        outcome_issue = failure.has_value();
        // seeded_gc is mistuned on purpose; its replays may lose the race.
        if (ctx.checks && scenario->name != "seeded_gc")
            ctx.checks->expect(!failure, label + ": replay " + failure.value_or(""));
    }

    const DeviceSums end = sumDevice(*system);
    const std::uint64_t events = system->scheduler().executedEvents();
    if (ctx.virt && spec != nullptr && anchor_sizes &&
        in.mode == RuntimeChangeMode::RchDroid) {
        const bool one = spec->n_image_views == 1;
        for (const auto &interval :
             system->cpuTracker().intervalsTagged("onPostExecute")) {
            ctx.virt->addAnchor(one ? "fig10b_migration_1" : "fig10b_migration_32",
                                one ? kPaperMigration1Ms : kPaperMigration32Ms,
                                toMillisF(interval.duration()));
        }
    }
    if (ctx.layers) {
        LayerTotals &l = *ctx.layers;
        l.episodes += episodes;
        l.events += events;
        l.resource_loads += end.resource_loads - start.resource_loads;
        l.resource_cost += end.resource_cost - start.resource_cost;
        // Inflations count the launch's own: view work per handled change
        // over the whole session, so apps that handle changes themselves
        // still show the inflation restarts make them repeat.
        l.layout_loads += end.layout_loads;
        l.trace_events += system->trace().events().size() - trace_start;
        addRch(l.rch, end.rch);
    }
    if (ctx.digest) {
        Digest &d = *ctx.digest;
        d.mix(session.target);
        d.mix(episodes);
        d.mix(events);
        d.mixDouble(virt_sum_ms);
        d.mix(end.heap_bytes);
        d.mix(outcome_issue ? 1 : 0);
        d.mix(end.rch.flips);
        d.mix(end.rch.init_launches);
        d.mix(end.rch.gc_collections);
        d.mix(end.rch.views_migrated);
    }
    ctx.episodes += episodes;
    ctx.events += events;
    Span span(spans, "teardown");
    system.reset();
}

} // namespace perfbench
