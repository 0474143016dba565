/**
 * @file
 * Golden-file pin of layout inflation: every view of every corpus app's
 * main layout (plus Benchmark 1/32/128), inflated under portrait,
 * landscape, fr-FR and keyboard-attached configurations, together with
 * the virtual cost the inflation reports and the resource loads it
 * counts. Any inflater or resource-table change that moves a widget
 * property, a cost or a load count shows up as a readable text diff.
 *
 * After an intentional change, regenerate with
 *
 *   RCHDROID_UPDATE_GOLDEN=1 ./tests/view/inflation_golden_test
 *
 * and review the diff of tests/view/inflation_golden.txt like any other
 * source change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_builder.h"
#include "apps/corpus.h"
#include "sim/device_model.h"
#include "view/extra_widgets.h"
#include "view/image_view.h"
#include "view/layout_inflater.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

std::vector<apps::AppSpec>
goldenSpecs()
{
    std::vector<apps::AppSpec> specs = apps::tp37();
    for (auto set : {apps::top100(), apps::exampleSpecs()}) {
        for (apps::AppSpec &spec : set)
            specs.push_back(std::move(spec));
    }
    for (int n : {1, 32, 128})
        specs.push_back(apps::makeBenchmarkApp(n));
    return specs;
}

std::vector<std::pair<std::string, Configuration>>
goldenConfigs()
{
    Configuration keyboard = Configuration::defaultPortrait();
    keyboard.keyboard = KeyboardState::Attached;
    return {
        {"port", Configuration::defaultPortrait()},
        {"land", Configuration::defaultLandscape()},
        {"fr-FR", Configuration::defaultPortrait().withLocale("fr-FR")},
        {"kbd", keyboard},
    };
}

void
dumpView(const View &view, int depth, std::ostream &os)
{
    os << std::string(2 * depth, ' ') << view.typeName() << " id="
       << view.id();
    if (const auto *text = dynamic_cast<const TextView *>(&view))
        os << " text=\"" << text->text() << '"';
    if (const auto *edit = dynamic_cast<const EditText *>(&view))
        os << " hint=\"" << edit->hint() << '"';
    if (const auto *box = dynamic_cast<const CheckBox *>(&view))
        os << " checked=" << box->isChecked();
    if (const auto *bar = dynamic_cast<const ProgressBar *>(&view))
        os << " progress=" << bar->progress() << " max=" << bar->max();
    if (const auto *rating = dynamic_cast<const RatingBar *>(&view))
        os << " rating=" << rating->rating();
    if (const auto *list = dynamic_cast<const AbsListView *>(&view)) {
        os << " items=";
        for (std::size_t i = 0; i < list->items().size(); ++i)
            os << (i ? "|" : "") << list->items()[i];
    }
    if (const auto *image = dynamic_cast<const ImageView *>(&view)) {
        os << " drawable="
           << (image->drawable() ? image->drawable()->asset_name : "-");
    }
    if (const auto *video = dynamic_cast<const VideoView *>(&view))
        os << " video=" << video->videoUri();
    os << '\n';
    if (const auto *group = dynamic_cast<const ViewGroup *>(&view)) {
        for (std::size_t i = 0; i < group->childCount(); ++i)
            dumpView(group->childAt(i), depth + 1, os);
    }
}

/** Inflate every golden spec under every golden config; the dump. */
std::string
inflationDump()
{
    const sim::DeviceModel device = sim::DeviceModel::rk3399();
    std::ostringstream os;
    for (const apps::AppSpec &spec : goldenSpecs()) {
        const apps::BuiltApp built = apps::buildAppResources(spec);
        ResourceManager resources(built.resources, device.resources);
        LayoutInflater inflater(resources, device.framework.inflate_per_node);
        // Configs after the first are written as the lines where their
        // views differ from the first config's, which keeps the file
        // reviewable; a different tree shape is written in full.
        std::vector<std::string> first;
        for (const auto &[label, config] : goldenConfigs()) {
            const ResourceLoadStats before = resources.stats();
            auto inflated = inflater.inflate(built.main_layout, config);
            const ResourceLoadStats &after = resources.stats();
            os << "== " << spec.name << " [" << label << "]";
            if (!inflated) {
                os << " error=" << inflated.status().toString() << '\n';
                continue;
            }
            os << " cost=" << inflated.value().cost
               << " strings=" << after.string_loads - before.string_loads
               << " drawables=" << after.drawable_loads - before.drawable_loads
               << " layouts=" << after.layout_loads - before.layout_loads
               << " dimensions="
               << after.dimension_loads - before.dimension_loads
               << " bytes=" << after.drawable_bytes - before.drawable_bytes
               << " load_cost=" << after.total_cost - before.total_cost
               << '\n';
            std::ostringstream dump;
            dumpView(*inflated.value().value, 1, dump);
            std::vector<std::string> lines;
            std::istringstream in(dump.str());
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
            if (first.empty() || lines.size() != first.size()) {
                if (first.empty())
                    first = lines;
                os << dump.str();
                continue;
            }
            for (std::size_t i = 0; i < lines.size(); ++i) {
                if (lines[i] != first[i])
                    os << "  @" << i << lines[i] << '\n';
            }
        }
    }
    return os.str();
}

std::string
goldenPath()
{
    return RCHDROID_INFLATION_GOLDEN;
}

TEST(InflationGolden, CorpusInflationMatchesTheCheckedInDump)
{
    const std::string actual = inflationDump();

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
    const std::string expected = buffer.str();

    if (actual != expected) {
        std::size_t line = 1, at = 0;
        const std::size_t limit = std::min(actual.size(), expected.size());
        while (at < limit && actual[at] == expected[at]) {
            if (actual[at] == '\n')
                ++line;
            ++at;
        }
        FAIL() << "inflation dump diverges from the golden at line " << line
               << " (byte " << at << ") — if the change is intentional, "
               << "regenerate with RCHDROID_UPDATE_GOLDEN=1 and review the "
               << "diff";
    }
    SUCCEED();
}

} // namespace
} // namespace rchdroid
