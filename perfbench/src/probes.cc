#include "probes.h"

#include <memory>

#include "apps/app_builder.h"
#include "mc/scenario.h"
#include "os/parcel.h"
#include "rch/view_tree_mapper.h"
#include "sim/android_system.h"
#include "view/layout_inflater.h"

namespace perfbench {

using namespace rchdroid;

namespace {

/** Repetitions per probed call; enough to lift it over clock jitter. */
constexpr int kReps = 20;

/** Time `reps` calls of `fn` into `total`. */
template <typename Fn>
void
timeReps(ProbeTotal &total, int reps, std::uint64_t units_per_op, Fn &&fn)
{
    const std::int64_t start = hostNs();
    for (int i = 0; i < reps; ++i)
        fn();
    total.ns += hostNs() - start;
    total.ops += static_cast<std::uint64_t>(reps);
    total.units += units_per_op * static_cast<std::uint64_t>(reps);
}

/** Resource references ("@drawable/x", "@string/y") of a layout. */
void
collectRefs(const LayoutNode &node,
            std::vector<std::pair<ResourceType, std::string>> &out)
{
    for (const auto &[key, value] : node.attrs) {
        if (value.rfind("@drawable/", 0) == 0)
            out.emplace_back(ResourceType::Drawable, value.substr(10));
        else if (value.rfind("@string/", 0) == 0)
            out.emplace_back(ResourceType::String, value.substr(8));
    }
    for (const auto &child : node.children)
        collectRefs(child, out);
}

void
probeApp(ProbeResults &r, sim::AndroidSystem &system, sim::InstalledApp &app,
         SpanLog &spans)
{
    ActivityThread &thread = *app.thread;
    std::shared_ptr<Activity> foreground = thread.foregroundActivity();
    if (!foreground)
        return;
    const Configuration config = system.currentConfiguration();

    {
        Span span(spans, "probe.os");
        const Bundle saved = foreground->saveInstanceStateNow(false);
        timeReps(r.parcel_roundtrip, kReps, 0,
                 [&] { (void)roundTripBundle(saved); });
    }
    {
        Span span(spans, "probe.view");
        int views = 0;
        foreground->window().decorView().visit([&views](View &) { ++views; });
        std::uint64_t sink = 0;
        timeReps(r.visit, kReps, static_cast<std::uint64_t>(views),
                 [&] { foreground->window().decorView().visit([&sink](View &) { ++sink; }); });
    }
    if (app.built.resources && !app.spec.name.empty()) {
        const ResourceTable &table = *app.built.resources;
        std::vector<std::pair<ResourceType, std::string>> refs;
        collectRefs(apps::buildMainLayout(app.spec), refs);
        std::vector<std::pair<ResourceType, ResourceId>> ids;
        {
            Span span(spans, "probe.resources");
            timeReps(r.id_lookup, kReps, refs.size(), [&] {
                for (const auto &[type, name] : refs)
                    (void)table.idForName(type, name);
            });
            for (const auto &[type, name] : refs) {
                if (auto id = table.idForName(type, name); id.isOk())
                    ids.emplace_back(type, id.value());
            }
            timeReps(r.resolve, kReps, ids.size(), [&] {
                for (const auto &[type, id] : ids) {
                    if (type == ResourceType::Drawable)
                        (void)table.resolveDrawable(id, config);
                    else
                        (void)table.resolveString(id, config);
                }
            });
        }
        {
            Span span(spans, "probe.view");
            const sim::DeviceModel &device = system.options().device;
            ResourceManager resources(app.built.resources, device.resources);
            LayoutInflater inflater(resources, device.framework.inflate_per_node);
            int views = 0;
            if (auto tree = inflater.inflate(app.built.main_layout, config); tree.isOk())
                views = tree.value().value->countViews();
            timeReps(r.inflate, kReps, static_cast<std::uint64_t>(views),
                     [&] { (void)inflater.inflate(app.built.main_layout, config); });
        }
    }
    if (std::shared_ptr<Activity> shadow = thread.shadowActivity()) {
        Span span(spans, "probe.rch");
        ViewTreeMapper mapper;
        timeReps(r.build_mapping, kReps, 0,
                 [&] { (void)mapper.buildMapping(*foreground, *shadow); });
    }
}

} // namespace

ProbeResults
runProbes(const Inputs &inputs, SpanLog &spans)
{
    ProbeResults results;
    const bool mc = inputs.workload == Workload::McCatalogue;
    const std::size_t targets =
        mc ? mc::scenarioCatalog().size() : inputs.apps.size();
    for (std::size_t t = 0; t < targets; ++t) {
        Span span(spans, "probe");
        std::unique_ptr<sim::AndroidSystem> system;
        if (mc) {
            const mc::Scenario &scenario = mc::scenarioCatalog()[t];
            sim::SystemOptions options = scenario.make_options();
            options.analysis_enabled = false;
            system = std::make_unique<sim::AndroidSystem>(options);
            scenario.setup(*system);
        } else {
            sim::SystemOptions options;
            options.mode = inputs.mode;
            options.rch = inputs.rch;
            options.analysis_enabled = false;
            system = std::make_unique<sim::AndroidSystem>(options);
            system->install(inputs.apps[t]);
            system->launch(inputs.apps[t]);
            system->applyUserState(inputs.apps[t]);
        }
        system->rotate();
        if (!system->waitHandlingComplete())
            continue;
        system->runFor(seconds(1));
        for (const auto &[process, app] : system->installedApps())
            probeApp(results, *system, *app, spans);
    }
    return results;
}

} // namespace perfbench
