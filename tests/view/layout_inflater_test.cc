/**
 * @file
 * LayoutInflater: element construction, resource references, cost
 * accounting, custom factories, error statuses, references declared
 * after their layout, and an allocation gate on warm inflation.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "apps/app_builder.h"
#include "apps/corpus.h"
#include "sim/device_model.h"
#include "view/image_view.h"
#include "view/layout_inflater.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

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

namespace rchdroid {
namespace {

struct InflaterFixture : ::testing::Test
{
    InflaterFixture()
    {
        table = std::make_shared<ResourceTable>();
        table->addString("hello", ResourceQualifier::any(),
                         StringValue{"Hello"});
        table->addString("hello", ResourceQualifier::forLocale("fr-FR"),
                         StringValue{"Bonjour"});
        table->addDrawable("pic", ResourceQualifier::any(),
                           DrawableValue{"pic_any", 16, 16});

        LayoutNode root;
        root.element = "LinearLayout";
        root.attrs = {{"id", "root"}, {"orientation", "vertical"}};
        LayoutNode text;
        text.element = "TextView";
        text.attrs = {{"id", "title"}, {"text", "@string/hello"}};
        LayoutNode image;
        image.element = "ImageView";
        image.attrs = {{"id", "img"}, {"src", "@drawable/pic"}};
        root.children = {text, image};
        layout_id = table->addLayout("main", ResourceQualifier::any(),
                                     LayoutValue{root});

        ResourceCostModel costs;
        costs.lookup_cost = microseconds(10);
        costs.drawable_base_cost = microseconds(50);
        costs.drawable_per_kib = microseconds(1);
        costs.layout_per_node = microseconds(20);
        resources.emplace(table, costs);
        inflater.emplace(*resources, microseconds(100));
    }

    /** Inflate a one-node layout and return its error status. */
    Status
    inflateError(LayoutNode node)
    {
        auto result = inflater->inflateNode(node, config);
        EXPECT_FALSE(result.isOk()) << node.element;
        return result.status();
    }

    std::shared_ptr<ResourceTable> table;
    ResourceId layout_id = 0;
    std::optional<ResourceManager> resources;
    std::optional<LayoutInflater> inflater;
    Configuration config = Configuration::defaultPortrait();
};

TEST_F(InflaterFixture, BuildsDeclaredTree)
{
    auto result = inflater->inflate(layout_id, config);
    ASSERT_TRUE(result.isOk());
    View &root = *result.value().value;
    EXPECT_STREQ(root.typeName(), "LinearLayout");
    auto *title = dynamic_cast<TextView *>(root.findViewById("title"));
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->text(), "Hello");
    auto *img = dynamic_cast<ImageView *>(root.findViewById("img"));
    ASSERT_NE(img, nullptr);
    EXPECT_EQ(img->assetName(), "pic_any");
}

TEST_F(InflaterFixture, LocaleAffectsStringResolution)
{
    auto result =
        inflater->inflate(layout_id, config.withLocale("fr-FR"));
    ASSERT_TRUE(result.isOk());
    auto *title = dynamic_cast<TextView *>(
        result.value().value->findViewById("title"));
    ASSERT_NE(title, nullptr);
    EXPECT_EQ(title->text(), "Bonjour");
}

TEST_F(InflaterFixture, CostCoversParseInflateAndResources)
{
    auto result = inflater->inflate(layout_id, config);
    ASSERT_TRUE(result.isOk());
    // layout: lookup 10 + 3 nodes * 20 = 70
    // inflate: 3 nodes * 100 = 300
    // string: 10; drawable: 10 + 50 + 1 = 61
    EXPECT_EQ(result.value().cost, microseconds(70 + 300 + 10 + 61));
}

TEST_F(InflaterFixture, InflateNodeDirect)
{
    LayoutNode node;
    node.element = "ProgressBar";
    node.attrs = {{"id", "p"}, {"progress", "30"}, {"max", "60"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *bar = dynamic_cast<ProgressBar *>(result.value().value.get());
    ASSERT_NE(bar, nullptr);
    EXPECT_EQ(bar->progress(), 30);
    EXPECT_EQ(bar->max(), 60);
}

TEST_F(InflaterFixture, AllBuiltinElements)
{
    for (const char *element :
         {"View", "FrameLayout", "LinearLayout", "ScrollView", "TextView",
          "Button", "EditText", "CheckBox", "ImageView", "ProgressBar",
          "SeekBar", "ListView", "GridView", "AbsListView", "VideoView"}) {
        LayoutNode node;
        node.element = element;
        node.attrs = {{"id", "x"}};
        auto result = inflater->inflateNode(node, config);
        ASSERT_TRUE(result.isOk()) << element;
    }
}

TEST_F(InflaterFixture, ListItemsAttribute)
{
    LayoutNode node;
    node.element = "ListView";
    node.attrs = {{"id", "l"}, {"items", "a|b|c"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *list = dynamic_cast<ListView *>(result.value().value.get());
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->itemCount(), 3u);
}

TEST_F(InflaterFixture, GridColumns)
{
    LayoutNode node;
    node.element = "GridView";
    node.attrs = {{"id", "g"}, {"columns", "4"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *grid = dynamic_cast<GridView *>(result.value().value.get());
    ASSERT_NE(grid, nullptr);
    EXPECT_EQ(grid->columns(), 4);
}

TEST_F(InflaterFixture, CheckedAttribute)
{
    LayoutNode node;
    node.element = "CheckBox";
    node.attrs = {{"id", "c"}, {"checked", "true"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    auto *box = dynamic_cast<CheckBox *>(result.value().value.get());
    ASSERT_NE(box, nullptr);
    EXPECT_TRUE(box->isChecked());
}

TEST_F(InflaterFixture, UnknownElementFails)
{
    LayoutNode node;
    node.element = "FancyWidget";
    auto result = inflater->inflateNode(node, config);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
    EXPECT_EQ(result.status().message(), "unknown layout element FancyWidget");
}

TEST_F(InflaterFixture, LeafWithChildrenFails)
{
    LayoutNode node;
    node.element = "TextView";
    LayoutNode child;
    child.element = "View";
    node.children.push_back(child);
    auto result = inflater->inflateNode(node, config);
    EXPECT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
    EXPECT_EQ(result.status().message(), "TextView cannot have children");
}

TEST_F(InflaterFixture, MissingStringReferenceFails)
{
    LayoutNode node;
    node.element = "TextView";
    node.attrs = {{"text", "@string/nope"}};
    EXPECT_EQ(inflateError(node).toString(),
              "NotFound: no resource named nope");
}

TEST_F(InflaterFixture, MissingHintItemsAndDrawableReferencesFail)
{
    LayoutNode hint;
    hint.element = "EditText";
    hint.attrs = {{"text", "ok"}, {"hint", "@string/nohint"}};
    EXPECT_EQ(inflateError(hint).toString(),
              "NotFound: no resource named nohint");

    LayoutNode items;
    items.element = "Spinner";
    items.attrs = {{"items", "@string/noitems"}};
    EXPECT_EQ(inflateError(items).toString(),
              "NotFound: no resource named noitems");

    LayoutNode image;
    image.element = "ImageView";
    image.attrs = {{"src", "@drawable/nopic"}};
    EXPECT_EQ(inflateError(image).toString(),
              "NotFound: no resource named nopic");
}

TEST_F(InflaterFixture, CustomFactoryBuildsUserDefinedView)
{
    class CustomCard final : public TextView
    {
      public:
        explicit CustomCard(std::string id) : TextView(std::move(id)) {}
        const char *typeName() const override { return "CustomCard"; }
    };

    ASSERT_TRUE(inflater->registerFactory(
        "CustomCard",
        [](const std::string &id, const auto &) {
            return std::make_unique<CustomCard>(id);
        }));
    LayoutNode node;
    node.element = "CustomCard";
    node.attrs = {{"id", "card"}};
    auto result = inflater->inflateNode(node, config);
    ASSERT_TRUE(result.isOk());
    EXPECT_STREQ(result.value().value->typeName(), "CustomCard");
    // Still carries the Text migration class (basic-type migration).
    EXPECT_EQ(result.value().value->migrationClass(), MigrationClass::Text);
}

TEST_F(InflaterFixture, CannotOverrideBuiltins)
{
    for (const char *element :
         {"View", "ViewGroup", "LinearLayout", "FrameLayout", "ScrollView",
          "TextView", "Button", "EditText", "CheckBox", "ImageView",
          "ProgressBar", "SeekBar", "ListView", "GridView", "AbsListView",
          "VideoView", "Spinner", "Switch", "RatingBar"}) {
        const auto status = inflater->registerFactory(
            element, [](const std::string &id, const auto &) {
                return std::make_unique<TextView>(id);
            });
        EXPECT_EQ(status.code(), StatusCode::InvalidArgument) << element;
        EXPECT_EQ(status.message(),
                  std::string("cannot override builtin element ") + element);
    }
}

TEST_F(InflaterFixture, FactoryReturningNullFails)
{
    ASSERT_TRUE(inflater->registerFactory(
        "Broken", [](const std::string &, const auto &) {
            return std::unique_ptr<View>();
        }));
    LayoutNode broken;
    broken.element = "Broken";
    EXPECT_EQ(inflateError(broken).toString(),
              "Internal: factory for Broken returned null");
}

TEST_F(InflaterFixture, FirstFailingNodeInPreOrderWins)
{
    // The node's own references fail before its children are checked,
    // and an earlier sibling's subtree fails before a later sibling.
    LayoutNode leaf;
    leaf.element = "TextView";
    leaf.attrs = {{"text", "@string/first"}};
    leaf.children.push_back(LayoutNode{"View", {}, {}});
    LayoutNode later;
    later.element = "ImageView";
    later.attrs = {{"src", "@drawable/second"}};
    LayoutNode root;
    root.element = "LinearLayout";
    root.children = {LayoutNode{"FrameLayout", {}, {leaf}}, later};
    EXPECT_EQ(inflateError(root).toString(),
              "NotFound: no resource named first");
}

TEST_F(InflaterFixture, RegisteredLayoutFailsAtTheMissingReference)
{
    LayoutNode root;
    root.element = "FrameLayout";
    root.children.push_back(
        LayoutNode{"TextView", {{"text", "@string/missing"}}, {}});
    const ResourceId id =
        table->addLayout("broken", ResourceQualifier::any(), LayoutValue{root});
    auto result = inflater->inflate(id, config);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().toString(),
              "NotFound: no resource named missing");
}

TEST_F(InflaterFixture, ReferenceDeclaredAfterTheLayoutResolves)
{
    LayoutNode root;
    root.element = "LinearLayout";
    root.children.push_back(
        LayoutNode{"TextView", {{"id", "t"}, {"text", "@string/late"}}, {}});
    root.children.push_back(
        LayoutNode{"ImageView", {{"id", "i"}, {"src", "@drawable/late"}}, {}});
    const ResourceId id =
        table->addLayout("late", ResourceQualifier::any(), LayoutValue{root});
    table->addString("late", ResourceQualifier::any(), StringValue{"Late"});
    table->addDrawable("late", ResourceQualifier::any(),
                       DrawableValue{"late_any", 4, 4});

    auto result = inflater->inflate(id, config);
    ASSERT_TRUE(result.isOk());
    auto *text =
        dynamic_cast<TextView *>(result.value().value->findViewById("t"));
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(text->text(), "Late");
    auto *image =
        dynamic_cast<ImageView *>(result.value().value->findViewById("i"));
    ASSERT_NE(image, nullptr);
    EXPECT_EQ(image->assetName(), "late_any");
}

/** Heap allocations of one warm inflation of `spec`'s main layout. */
std::size_t
warmInflationAllocations(const apps::AppSpec &spec)
{
    const sim::DeviceModel device = sim::DeviceModel::rk3399();
    const apps::BuiltApp built = apps::buildAppResources(spec);
    ResourceManager resources(built.resources, device.resources);
    LayoutInflater inflater(resources, device.framework.inflate_per_node);
    const Configuration config = Configuration::defaultPortrait();
    EXPECT_TRUE(inflater.inflate(built.main_layout, config).isOk());

    const std::size_t before = g_allocations;
    auto result = inflater.inflate(built.main_layout, config);
    const std::size_t allocations = g_allocations - before;
    EXPECT_TRUE(result.isOk());
    return allocations;
}

// The layout is compiled once when it is registered, so a warm
// inflation allocates the views, each group's child list and the values
// the views own, and nothing per layout node besides. A count above the
// pin means per-inflation copying or parsing of the layout came back
// (a copy of the attribute-map tree cost 157 and 109 here).
TEST(InflaterAllocations, WarmBenchmarkInflationIsPinned)
{
    // 35 views (root, title, 32 images, button) + the root's child list.
    EXPECT_LE(warmInflationAllocations(apps::makeBenchmarkApp(32)), 36u);
}

TEST(InflaterAllocations, WarmTop100InflationIsPinned)
{
    EXPECT_LE(warmInflationAllocations(apps::top100().front()), 30u);
}

} // namespace
} // namespace rchdroid
