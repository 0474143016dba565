/**
 * @file
 * app_builder: the generated resources and layout must express the
 * spec's composition and issue class.
 */
#include <gtest/gtest.h>

#include "apps/app_builder.h"
#include "apps/simulated_app.h"

namespace rchdroid::apps {
namespace {

AppSpec
sampleSpec()
{
    AppSpec spec;
    spec.name = "Sample";
    spec.n_text_views = 2;
    spec.n_edit_texts = 1;
    spec.n_image_views = 3;
    spec.n_checkboxes = 1;
    spec.n_progress_bars = 1;
    spec.n_list_views = 1;
    spec.list_items = 4;
    spec.n_video_views = 1;
    spec.image_edge_px = 32;
    return spec;
}

int
countElement(const LayoutNode &node, const std::string &element)
{
    int n = node.element == element ? 1 : 0;
    for (const auto &child : node.children)
        n += countElement(child, element);
    return n;
}

TEST(AppBuilder, LayoutContainsDeclaredComposition)
{
    const LayoutNode root = buildMainLayout(sampleSpec());
    EXPECT_EQ(countElement(root, "TextView"), 3); // title + 2
    EXPECT_EQ(countElement(root, "EditText"), 1);
    EXPECT_EQ(countElement(root, "ImageView"), 3);
    EXPECT_EQ(countElement(root, "CheckBox"), 1);
    EXPECT_EQ(countElement(root, "ProgressBar"), 1);
    EXPECT_EQ(countElement(root, "ListView"), 1);
    EXPECT_EQ(countElement(root, "VideoView"), 1);
    EXPECT_EQ(countElement(root, "Button"), 1);
}

TEST(AppBuilder, TotalLayoutViewsMatchesNodeCount)
{
    const AppSpec spec = sampleSpec();
    const LayoutNode root = buildMainLayout(spec);
    // totalLayoutViews counts the layout's nodes (the decor view on top
    // of them belongs to the window, not the layout).
    EXPECT_EQ(root.countNodes(), spec.totalLayoutViews());
}

TEST(AppBuilder, EditTextNoIdIssueOmitsTheId)
{
    AppSpec spec = sampleSpec();
    spec.critical = CriticalState::EditTextNoId;
    const LayoutNode root = buildMainLayout(spec);
    bool found_idless_edit = false;
    std::function<void(const LayoutNode &)> walk =
        [&](const LayoutNode &node) {
            if (node.element == "EditText" && !node.attrs.count("id"))
                found_idless_edit = true;
            for (const auto &child : node.children)
                walk(child);
        };
    walk(root);
    EXPECT_TRUE(found_idless_edit);
}

TEST(AppBuilder, ScrollIssueWrapsContentInIdlessScrollView)
{
    AppSpec spec = sampleSpec();
    spec.critical = CriticalState::ScrollOffsetNoId;
    const LayoutNode root = buildMainLayout(spec);
    EXPECT_EQ(countElement(root, "ScrollView"), 1);
}

TEST(AppBuilder, ResourcesResolveUnderBothOrientations)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto port = built.resources->resolveLayout(
        built.main_layout, Configuration::defaultPortrait());
    const auto land = built.resources->resolveLayout(
        built.main_layout, Configuration::defaultLandscape());
    EXPECT_TRUE(port.isOk());
    EXPECT_TRUE(land.isOk());
}

TEST(AppBuilder, DrawablesAreOrientationQualified)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto id =
        built.resources->idForName(ResourceType::Drawable, "img_0");
    ASSERT_TRUE(id.isOk());
    const auto port = built.resources->resolveDrawable(
        id.value(), Configuration::defaultPortrait());
    const auto land = built.resources->resolveDrawable(
        id.value(), Configuration::defaultLandscape());
    ASSERT_TRUE(port.isOk());
    ASSERT_TRUE(land.isOk());
    EXPECT_NE(port.value().asset_name, land.value().asset_name);
    EXPECT_EQ(port.value().width_px, 32);
}

TEST(AppBuilder, TitleIsLocaleQualified)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto id = built.resources->idForName(ResourceType::String, "title");
    ASSERT_TRUE(id.isOk());
    const auto fr = built.resources->resolveString(
        id.value(), Configuration::defaultPortrait().withLocale("fr-FR"));
    ASSERT_TRUE(fr.isOk());
    EXPECT_EQ(fr.value().text, "Sample (fr)");
}

TEST(AppBuilder, FactoryProducesSimulatedApp)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto factory = makeAppFactory(spec, built);
    auto activity = factory();
    ASSERT_NE(activity, nullptr);
    EXPECT_EQ(activity->component(), spec.component());
}

TEST(AppBuilder, RelaunchedInstancesShareOneSpec)
{
    const AppSpec spec = sampleSpec();
    const BuiltApp built = buildAppResources(spec);
    const auto factory = makeAppFactory(spec, built);
    auto first = factory();
    auto second = factory();
    const auto &a = dynamic_cast<const SimulatedApp &>(*first);
    const auto &b = dynamic_cast<const SimulatedApp &>(*second);
    EXPECT_EQ(&a.spec(), &b.spec());
    EXPECT_EQ(a.spec().name, "Sample");
}

} // namespace
} // namespace rchdroid::apps
