/**
 * @file
 * Widget instance state: the default (stock Android) vs full (RCHDroid
 * explicit snapshot) coverage matrix that the paper's effectiveness
 * results rest on, exercised per widget and as a parameterised sweep;
 * and the saved-state memo, checked for every widget kind and public
 * mutator against a save of a freshly built tree.
 */
#include <gtest/gtest.h>

#include <functional>

#include "view/extra_widgets.h"
#include "view/image_view.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {
namespace {

/** Save `source` (default or full), then restore into `target`. */
void
transferState(const View &source, View &target, bool full)
{
    Bundle container;
    source.saveHierarchyState(container, full, "r");
    target.restoreHierarchyState(container, "r");
}

TEST(WidgetState, TextViewTextLostByDefaultKeptByFull)
{
    TextView source("t");
    source.setText("user text");
    {
        TextView fresh("t");
        transferState(source, fresh, /*full=*/false);
        EXPECT_EQ(fresh.text(), ""); // stock Android loses it
    }
    {
        TextView fresh("t");
        transferState(source, fresh, /*full=*/true);
        EXPECT_EQ(fresh.text(), "user text"); // RCHDroid keeps it
    }
}

TEST(WidgetState, EditTextKeptEvenByDefault)
{
    EditText source("e");
    source.typeText("draft");
    EditText fresh("e");
    transferState(source, fresh, /*full=*/false);
    EXPECT_EQ(fresh.text(), "draft");
    EXPECT_EQ(fresh.cursorPosition(), 5);
}

TEST(WidgetState, IdlessEditTextLostByDefaultKeptByFull)
{
    EditText source("");
    source.typeText("login");
    {
        EditText fresh("");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.text(), ""); // the "text box" issue class
    }
    {
        EditText fresh("");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.text(), "login"); // path-keyed full save
    }
}

TEST(WidgetState, CheckBoxCheckedKeptByDefault)
{
    CheckBox source("c");
    source.setChecked(true);
    CheckBox fresh("c");
    transferState(source, fresh, false);
    EXPECT_TRUE(fresh.isChecked());
}

TEST(WidgetState, ProgressBarLostByDefaultKeptByFull)
{
    ProgressBar source("p");
    source.setProgress(42);
    {
        ProgressBar fresh("p");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.progress(), 0);
    }
    {
        ProgressBar fresh("p");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.progress(), 42);
    }
}

TEST(WidgetState, SeekBarKeptByDefault)
{
    SeekBar source("s");
    source.dragTo(77);
    SeekBar fresh("s");
    transferState(source, fresh, false);
    EXPECT_EQ(fresh.progress(), 77);
}

TEST(WidgetState, ListSelectionLostByDefaultScrollKept)
{
    ListView source("l");
    source.setItems({"a", "b", "c", "d", "e"});
    source.setItemChecked(3);
    source.setSelectorPosition(3);
    source.scrollToPosition(2);

    ListView fresh("l");
    fresh.setItems({"a", "b", "c", "d", "e"});
    transferState(source, fresh, false);
    EXPECT_EQ(fresh.checkedItem(), -1);        // selection list issue
    EXPECT_EQ(fresh.firstVisiblePosition(), 2); // scroll kept (stock)

    ListView full("l");
    full.setItems({"a", "b", "c", "d", "e"});
    transferState(source, full, true);
    EXPECT_EQ(full.checkedItem(), 3);
    EXPECT_EQ(full.selectorPosition(), 3);
}

TEST(WidgetState, ScrollViewOffsetKeptWithIdLostWithout)
{
    {
        ScrollView source("sv");
        source.scrollTo(420);
        ScrollView fresh("sv");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.scrollY(), 420);
    }
    {
        ScrollView source("");
        source.scrollTo(420);
        ScrollView fresh("");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.scrollY(), 0); // the "scroll location" issue
        ScrollView full("");
        transferState(source, full, true);
        EXPECT_EQ(full.scrollY(), 420);
    }
}

TEST(WidgetState, VideoPositionLostByDefaultKeptByFull)
{
    VideoView source("v");
    source.setVideoUri("content://clip");
    source.seekTo(90'000);
    {
        VideoView fresh("v");
        transferState(source, fresh, false);
        EXPECT_EQ(fresh.positionMs(), 0);
    }
    {
        VideoView fresh("v");
        transferState(source, fresh, true);
        EXPECT_EQ(fresh.positionMs(), 90'000);
        EXPECT_EQ(fresh.videoUri(), "content://clip");
    }
}

TEST(WidgetState, ImageAssetIdentityOnlyInFullMode)
{
    ImageView source("i");
    source.setDrawable(DrawableValue{"photo", 32, 32});
    {
        ImageView fresh("i");
        transferState(source, fresh, false);
        EXPECT_FALSE(fresh.drawable().has_value());
    }
    {
        ImageView fresh("i");
        transferState(source, fresh, true);
        ASSERT_TRUE(fresh.drawable().has_value());
        EXPECT_EQ(fresh.drawable()->asset_name, "photo");
    }
}

TEST(WidgetState, ResourceDerivedTextExcludedFromFullSave)
{
    // Text resolved from a resource is configuration-derived, not user
    // state: the snapshot must NOT carry it, so a new instance shows
    // its own locale's string (the locale-switch correctness rule).
    TextView source("title");
    source.setTextFromResource("Hello");
    EXPECT_TRUE(source.isTextFromResource());

    TextView fresh("title");
    fresh.setTextFromResource("Bonjour"); // the new config's variant
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.text(), "Bonjour");

    // Programmatic setText reclassifies the text as user state.
    source.setText("user text");
    EXPECT_FALSE(source.isTextFromResource());
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.text(), "user text");
}

TEST(WidgetState, ResourceDerivedDrawableExcludedFromFullSave)
{
    ImageView source("hero");
    source.setDrawableFromResource(DrawableValue{"hero_port", 8, 8});
    ImageView fresh("hero");
    fresh.setDrawableFromResource(DrawableValue{"hero_land", 8, 8});
    transferState(source, fresh, /*full=*/true);
    // The new instance keeps its own orientation's variant.
    EXPECT_EQ(fresh.assetName(), "hero_land");

    source.setDrawable(DrawableValue{"user_photo", 8, 8});
    transferState(source, fresh, /*full=*/true);
    EXPECT_EQ(fresh.assetName(), "user_photo");
}

TEST(WidgetState, ResourceDerivedAttributesExcludedFromMigration)
{
    TextView shadow_title("t"), sunny_title("t");
    shadow_title.setTextFromResource("Hello");
    sunny_title.setTextFromResource("Bonjour");
    shadow_title.applyMigration(sunny_title);
    EXPECT_EQ(sunny_title.text(), "Bonjour"); // not clobbered

    ImageView shadow_img("i"), sunny_img("i");
    shadow_img.setDrawableFromResource(DrawableValue{"port", 4, 4});
    sunny_img.setDrawableFromResource(DrawableValue{"land", 4, 4});
    shadow_img.applyMigration(sunny_img);
    EXPECT_EQ(sunny_img.assetName(), "land");
}

TEST(WidgetState, ContainerRecursionCoversNestedChildren)
{
    auto tree = std::make_unique<LinearLayout>(
        "root", LinearLayout::Direction::Vertical);
    auto inner = std::make_unique<FrameLayout>(""); // id-less container
    auto edit = std::make_unique<EditText>("e");
    edit->typeText("nested");
    inner->addChild(std::move(edit));
    tree->addChild(std::move(inner));

    auto fresh = std::make_unique<LinearLayout>(
        "root", LinearLayout::Direction::Vertical);
    auto inner2 = std::make_unique<FrameLayout>("");
    inner2->addChild(std::make_unique<EditText>("e"));
    fresh->addChild(std::move(inner2));

    // Even default mode recurses through id-less containers.
    transferState(*tree, *fresh, false);
    auto *restored = dynamic_cast<EditText *>(fresh->findViewById("e"));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->text(), "nested");
}

/**
 * Property sweep: a full-mode save/restore round trip is lossless for
 * every widget type, at any tree position, with or without an id.
 */
class FullSaveRoundTrip
    : public ::testing::TestWithParam<std::tuple<bool, int>>
{
};

std::unique_ptr<View>
makeWidget(int kind, const std::string &id)
{
    switch (kind) {
      case 0: {
        auto v = std::make_unique<TextView>(id);
        v->setText("T");
        return v;
      }
      case 1: {
        auto v = std::make_unique<EditText>(id);
        v->typeText("E");
        return v;
      }
      case 2: {
        auto v = std::make_unique<CheckBox>(id);
        v->setChecked(true);
        return v;
      }
      case 3: {
        auto v = std::make_unique<ProgressBar>(id);
        v->setProgress(9);
        return v;
      }
      case 4: {
        auto v = std::make_unique<ListView>(id);
        v->setItems({"x", "y", "z"});
        v->setItemChecked(1);
        return v;
      }
      case 5: {
        auto v = std::make_unique<VideoView>(id);
        v->setVideoUri("u");
        v->seekTo(123);
        return v;
      }
      default: {
        auto v = std::make_unique<ImageView>(id);
        v->setDrawable(DrawableValue{"a", 4, 4});
        return v;
      }
    }
}

bool
widgetStateEquals(const View &a, const View &b)
{
    if (auto *ta = dynamic_cast<const TextView *>(&a))
        return ta->text() == dynamic_cast<const TextView &>(b).text();
    if (auto *pa = dynamic_cast<const ProgressBar *>(&a))
        return pa->progress() ==
               dynamic_cast<const ProgressBar &>(b).progress();
    if (auto *la = dynamic_cast<const AbsListView *>(&a))
        return la->checkedItem() ==
               dynamic_cast<const AbsListView &>(b).checkedItem();
    if (auto *va = dynamic_cast<const VideoView *>(&a))
        return va->positionMs() ==
               dynamic_cast<const VideoView &>(b).positionMs();
    if (auto *ia = dynamic_cast<const ImageView *>(&a))
        return ia->assetName() ==
               dynamic_cast<const ImageView &>(b).assetName();
    return true;
}

TEST_P(FullSaveRoundTrip, Lossless)
{
    const bool with_id = std::get<0>(GetParam());
    const int kind = std::get<1>(GetParam());
    const std::string id = with_id ? "w" : "";

    LinearLayout source("root", LinearLayout::Direction::Vertical);
    auto &widget = source.addChild(makeWidget(kind, id));
    if (auto *list = dynamic_cast<AbsListView *>(&widget))
        (void)list;

    LinearLayout target("root", LinearLayout::Direction::Vertical);
    auto &fresh = target.addChild([&] {
        // A pristine widget of the same kind (lists pre-filled so the
        // restored positions are applicable).
        auto v = makeWidget(kind, id);
        if (auto *text = dynamic_cast<TextView *>(v.get()))
            text->setText("");
        if (auto *bar = dynamic_cast<ProgressBar *>(v.get()))
            bar->setProgress(0);
        if (auto *list = dynamic_cast<AbsListView *>(v.get()))
            list->clearItemChecked();
        if (auto *video = dynamic_cast<VideoView *>(v.get()))
            video->seekTo(0);
        if (auto *image = dynamic_cast<ImageView *>(v.get()))
            image->clearDrawable();
        return v;
    }());

    Bundle container;
    source.saveHierarchyState(container, /*full=*/true, "r");
    target.restoreHierarchyState(container, "r");
    EXPECT_TRUE(widgetStateEquals(widget, fresh))
        << "kind=" << kind << " with_id=" << with_id;
}

INSTANTIATE_TEST_SUITE_P(AllWidgets, FullSaveRoundTrip,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Range(0, 7)));

/**
 * The saved-state memo: for every widget kind and every public mutator,
 * save a tree (which memoises each view's state), mutate it, and save
 * again. The second save must equal a save of a freshly built tree that
 * went through the same mutation, so no mutator may leave a memo stale.
 */
struct MemoCase
{
    std::string name;
    /** A root LinearLayout holding one set-up widget with id "w". */
    std::function<std::unique_ptr<View>()> build;
    std::function<void(View &root)> mutate;
    /** The mutation re-stores held values, so the memo must survive it. */
    bool keeps_memo = false;
};

MemoCase
keepsMemo(MemoCase memo_case)
{
    memo_case.keeps_memo = true;
    return memo_case;
}

void
PrintTo(const MemoCase &memo_case, std::ostream *os)
{
    *os << memo_case.name;
}

template <typename W>
W &
widgetIn(View &root)
{
    auto *w = dynamic_cast<W *>(root.findViewById("w"));
    EXPECT_NE(w, nullptr);
    return *w;
}

/** A tree whose widget was built by `make` and set up by `setup`. */
template <typename W>
std::function<std::unique_ptr<View>()>
tree(std::function<std::unique_ptr<W>()> make, std::function<void(W &)> setup)
{
    return [make, setup] {
        auto root = std::make_unique<LinearLayout>(
            "root", LinearLayout::Direction::Vertical);
        std::unique_ptr<W> w = make();
        setup(*w);
        root->addChild(std::move(w));
        return std::unique_ptr<View>(std::move(root));
    };
}

template <typename W>
std::function<std::unique_ptr<W>()>
plain()
{
    return [] { return std::make_unique<W>("w"); };
}

/** A case whose mutation acts on the widget. */
template <typename W>
MemoCase
onWidget(std::string name, std::function<std::unique_ptr<View>()> build,
         std::function<void(W &)> mutate)
{
    return {std::move(name), std::move(build),
            [mutate](View &root) { mutate(widgetIn<W>(root)); }};
}

/** Restore the widget from the state a differently set-up twin saved. */
template <typename W>
MemoCase
restoreFrom(std::string name, std::function<std::unique_ptr<View>()> build,
            std::function<void(W &)> twin_setup, bool full)
{
    return {std::move(name), build, [build, twin_setup, full](View &root) {
                std::unique_ptr<View> twin = build();
                twin_setup(widgetIn<W>(*twin));
                Bundle saved;
                twin->saveHierarchyState(saved, full, "r");
                root.restoreHierarchyState(saved, "r");
            }};
}

/** Migrate onto the widget from a peer set up by `peer_setup`. */
template <typename W>
MemoCase
migrateFrom(std::string name, std::function<std::unique_ptr<View>()> build,
            std::function<void(W &)> peer_setup)
{
    return {std::move(name), build, [build, peer_setup](View &root) {
                std::unique_ptr<View> peer = build();
                peer_setup(widgetIn<W>(*peer));
                widgetIn<W>(*peer).applyMigration(widgetIn<W>(root));
            }};
}

std::vector<MemoCase>
memoCases()
{
    std::vector<MemoCase> cases;
    auto add = [&cases](MemoCase c) { cases.push_back(std::move(c)); };
    const auto noop = [](auto &) {};

    // View and the containers: the mutators that touch no saved state.
    const auto view = tree<View>(plain<View>(), noop);
    add(onWidget<View>("View_invalidate", view, [](View &v) { v.invalidate(); }));
    add(onWidget<View>("View_setFrame", view,
                       [](View &v) { v.setFrame(1, 2, 3, 4); }));
    add(onWidget<View>("View_setShadow", view, [](View &v) { v.setShadow(true); }));
    add(onWidget<View>("View_setSunny", view, [](View &v) { v.setSunny(true); }));
    add(onWidget<View>("View_clearDirty", view, [](View &v) { v.clearDirty(); }));
    add(migrateFrom<View>("View_applyMigration", view, noop));
    const auto frame = tree<FrameLayout>(plain<FrameLayout>(), [](FrameLayout &f) {
        f.addChild(std::make_unique<EditText>("e")).invalidate();
    });
    add(onWidget<FrameLayout>("FrameLayout_addChild", frame, [](FrameLayout &f) {
        f.addChild(std::make_unique<ScrollView>("added")).invalidate();
    }));
    add(onWidget<FrameLayout>("FrameLayout_removeChildAt", frame,
                              [](FrameLayout &f) { f.removeChildAt(0); }));
    add(onWidget<FrameLayout>("FrameLayout_detachChildAt", frame,
                              [](FrameLayout &f) { (void)f.detachChildAt(0); }));
    add(onWidget<FrameLayout>("FrameLayout_childMutation", frame, [](FrameLayout &f) {
        dynamic_cast<EditText &>(f.childAt(0)).typeText("x");
    }));
    add(onWidget<FrameLayout>("FrameLayout_layoutSubtree", frame,
                              [](FrameLayout &f) { f.layoutSubtree(0, 0, 8, 8); }));
    add(onWidget<FrameLayout>(
        "FrameLayout_dispatchShadowStateChanged", frame,
        [](FrameLayout &f) { f.dispatchShadowStateChanged(true); }));
    const auto lin = tree<LinearLayout>(
        [] {
            return std::make_unique<LinearLayout>(
                "w", LinearLayout::Direction::Horizontal);
        },
        noop);
    add(onWidget<LinearLayout>("LinearLayout_layoutSubtree", lin,
                               [](LinearLayout &l) { l.layoutSubtree(0, 0, 8, 8); }));

    const auto scroll =
        tree<ScrollView>(plain<ScrollView>(), [](ScrollView &v) { v.scrollTo(5); });
    add(onWidget<ScrollView>("ScrollView_scrollTo", scroll,
                             [](ScrollView &v) { v.scrollTo(9); }));
    add(keepsMemo(onWidget<ScrollView>("ScrollView_scrollToEqual", scroll,
                                       [](ScrollView &v) { v.scrollTo(5); })));
    add(restoreFrom<ScrollView>("ScrollView_restore", scroll,
                                [](ScrollView &v) { v.scrollTo(40); }, false));

    // The TextView family.
    const auto text =
        tree<TextView>(plain<TextView>(), [](TextView &v) { v.setText("a"); });
    const auto res_text = tree<TextView>(
        plain<TextView>(), [](TextView &v) { v.setTextFromResource("r"); });
    add(onWidget<TextView>("TextView_setText", text,
                           [](TextView &v) { v.setText("b"); }));
    add(keepsMemo(onWidget<TextView>("TextView_setTextEqual", text,
                                     [](TextView &v) { v.setText("a"); })));
    add(onWidget<TextView>("TextView_setTextFromResource", text,
                           [](TextView &v) { v.setTextFromResource("r"); }));
    add(onWidget<TextView>("TextView_setTextOverEqualResource", res_text,
                           [](TextView &v) { v.setText("r"); }));
    add(onWidget<TextView>("TextView_setTextSizeSp", text,
                           [](TextView &v) { v.setTextSizeSp(20); }));
    add(restoreFrom<TextView>("TextView_restore", text,
                              [](TextView &v) { v.setText("z"); }, true));
    add(restoreFrom<TextView>("TextView_restoreOverResource", res_text,
                              [](TextView &v) { v.setText("z"); }, true));
    add(migrateFrom<TextView>("TextView_applyMigration", text,
                              [](TextView &v) { v.setText("m"); }));
    add(keepsMemo(
        migrateFrom<TextView>("TextView_applyMigrationEqual", text, noop)));
    const auto button =
        tree<Button>(plain<Button>(), [](Button &v) { v.setText("go"); });
    add(onWidget<Button>("Button_setOnClickListener", button, [](Button &v) {
        v.setOnClickListener([&v] { v.setText("clicked"); });
    }));
    add(onWidget<Button>("Button_performClick", button, [](Button &v) {
        v.setOnClickListener([&v] { v.setText("clicked"); });
        v.performClick();
    }));

    const auto edit = tree<EditText>(plain<EditText>(), [](EditText &v) {
        v.typeText("abc");
        v.setCursorPosition(1);
    });
    add(onWidget<EditText>("EditText_setCursorPosition", edit,
                           [](EditText &v) { v.setCursorPosition(3); }));
    add(keepsMemo(onWidget<EditText>("EditText_setCursorPositionEqual", edit,
                                     [](EditText &v) { v.setCursorPosition(1); })));
    add(onWidget<EditText>("EditText_typeText", edit,
                           [](EditText &v) { v.typeText("xy"); }));
    add(keepsMemo(onWidget<EditText>("EditText_typeNothing", edit,
                                     [](EditText &v) { v.typeText(""); })));
    add(onWidget<EditText>("EditText_setText", edit,
                           [](EditText &v) { v.setText("new"); }));
    add(onWidget<EditText>("EditText_setHint", edit,
                           [](EditText &v) { v.setHint("hint"); }));
    add(restoreFrom<EditText>("EditText_restore", edit,
                              [](EditText &v) { v.setCursorPosition(2); }, false));
    add(migrateFrom<EditText>("EditText_applyMigration", edit,
                              [](EditText &v) { v.setCursorPosition(3); }));

    const auto check =
        tree<CheckBox>(plain<CheckBox>(), [](CheckBox &v) { v.setText("c"); });
    add(onWidget<CheckBox>("CheckBox_setChecked", check,
                           [](CheckBox &v) { v.setChecked(true); }));
    add(onWidget<CheckBox>("CheckBox_toggle", check, [](CheckBox &v) { v.toggle(); }));
    add(restoreFrom<CheckBox>("CheckBox_restore", check,
                              [](CheckBox &v) { v.setChecked(true); }, false));
    add(migrateFrom<CheckBox>("CheckBox_applyMigration", check,
                              [](CheckBox &v) { v.setChecked(true); }));
    const auto sw = tree<Switch>(plain<Switch>(), noop);
    add(onWidget<Switch>("Switch_toggle", sw, [](Switch &v) { v.toggle(); }));

    // ImageView: flip sync re-sets an equal drawable on every coin flip.
    const auto image = tree<ImageView>(plain<ImageView>(), [](ImageView &v) {
        v.setDrawable(DrawableValue{"a", 4, 4});
    });
    const auto res_image = tree<ImageView>(plain<ImageView>(), [](ImageView &v) {
        v.setDrawableFromResource(DrawableValue{"a", 4, 4});
    });
    add(keepsMemo(onWidget<ImageView>(
        "ImageView_setDrawableEqual", image,
        [](ImageView &v) { v.setDrawable(DrawableValue{"a", 4, 4}); })));
    add(onWidget<ImageView>("ImageView_setDrawableOtherAsset", image,
                            [](ImageView &v) {
                                v.setDrawable(DrawableValue{"b", 4, 4});
                            }));
    add(onWidget<ImageView>("ImageView_setDrawableOtherSize", image,
                            [](ImageView &v) {
                                v.setDrawable(DrawableValue{"a", 8, 4});
                            }));
    add(onWidget<ImageView>("ImageView_setDrawableOverEqualResource", res_image,
                            [](ImageView &v) {
                                v.setDrawable(DrawableValue{"a", 4, 4});
                            }));
    add(onWidget<ImageView>("ImageView_setDrawableFromResource", image,
                            [](ImageView &v) {
                                v.setDrawableFromResource(DrawableValue{"a", 4, 4});
                            }));
    add(onWidget<ImageView>("ImageView_clearDrawable", image,
                            [](ImageView &v) { v.clearDrawable(); }));
    add(restoreFrom<ImageView>("ImageView_restore", image, [](ImageView &v) {
        v.setDrawable(DrawableValue{"z", 2, 2});
    }, true));
    add(migrateFrom<ImageView>("ImageView_applyMigration", image, [](ImageView &v) {
        v.setDrawable(DrawableValue{"m", 4, 4});
    }));
    add(keepsMemo(
        migrateFrom<ImageView>("ImageView_applyMigrationEqual", image, noop)));

    // The AbsListView family.
    const auto fill = [](AbsListView &v) {
        v.setItems({"a", "b", "c", "d"});
        v.setSelectorPosition(1);
        v.setItemChecked(1);
        v.scrollToPosition(1);
    };
    const std::function<void(ListView &)> fill_list = fill;
    const auto list = tree<ListView>(plain<ListView>(), fill_list);
    add(onWidget<ListView>("ListView_setItems", list,
                           [](ListView &v) { v.setItems({"a"}); }));
    add(onWidget<ListView>("ListView_setSelectorPosition", list,
                           [](ListView &v) { v.setSelectorPosition(2); }));
    add(onWidget<ListView>("ListView_setItemChecked", list,
                           [](ListView &v) { v.setItemChecked(3); }));
    add(onWidget<ListView>("ListView_clearItemChecked", list,
                           [](ListView &v) { v.clearItemChecked(); }));
    add(onWidget<ListView>("ListView_scrollToPosition", list,
                           [](ListView &v) { v.scrollToPosition(3); }));
    add(restoreFrom<ListView>("ListView_restore", list,
                              [](ListView &v) { v.setItemChecked(2); }, true));
    add(migrateFrom<ListView>("ListView_applyMigration", list,
                              [](ListView &v) { v.setSelectorPosition(3); }));
    const std::function<void(GridView &)> fill_grid = fill;
    const auto grid = tree<GridView>(
        [] { return std::make_unique<GridView>("w", 3); }, fill_grid);
    add(onWidget<GridView>("GridView_setItemChecked", grid,
                           [](GridView &v) { v.setItemChecked(0); }));
    add(restoreFrom<GridView>("GridView_restore", grid,
                              [](GridView &v) { v.scrollToPosition(2); }, true));
    const std::function<void(Spinner &)> fill_spinner = fill;
    const auto spinner = tree<Spinner>(plain<Spinner>(), fill_spinner);
    add(onWidget<Spinner>("Spinner_select", spinner,
                          [](Spinner &v) { v.select(3); }));

    // The ProgressBar family.
    const auto bar = tree<ProgressBar>(plain<ProgressBar>(),
                                       [](ProgressBar &v) { v.setProgress(10); });
    add(onWidget<ProgressBar>("ProgressBar_setProgress", bar,
                              [](ProgressBar &v) { v.setProgress(20); }));
    add(onWidget<ProgressBar>("ProgressBar_setMax", bar,
                              [](ProgressBar &v) { v.setMax(5); }));
    add(restoreFrom<ProgressBar>("ProgressBar_restore", bar,
                                 [](ProgressBar &v) { v.setProgress(30); }, true));
    add(migrateFrom<ProgressBar>("ProgressBar_applyMigration", bar,
                                 [](ProgressBar &v) { v.setProgress(40); }));
    // Flip sync re-stores the held bound on every coin flip.
    add(keepsMemo(onWidget<ProgressBar>("ProgressBar_setMaxEqual", bar,
                                        [](ProgressBar &v) { v.setMax(100); })));
    add(keepsMemo(migrateFrom<ProgressBar>("ProgressBar_applyMigrationEqual",
                                           bar, noop)));
    const auto seek =
        tree<SeekBar>(plain<SeekBar>(), [](SeekBar &v) { v.dragTo(10); });
    add(onWidget<SeekBar>("SeekBar_dragTo", seek, [](SeekBar &v) { v.dragTo(60); }));
    add(keepsMemo(onWidget<SeekBar>("SeekBar_setMaxEqual", seek,
                                    [](SeekBar &v) { v.setMax(100); })));
    add(restoreFrom<SeekBar>("SeekBar_restore", seek,
                             [](SeekBar &v) { v.dragTo(70); }, false));
    const auto rating = tree<RatingBar>(plain<RatingBar>(),
                                        [](RatingBar &v) { v.setRating(2); });
    add(onWidget<RatingBar>("RatingBar_setRating", rating,
                            [](RatingBar &v) { v.setRating(3.5); }));

    // VideoView.
    const auto video = tree<VideoView>(plain<VideoView>(), [](VideoView &v) {
        v.setVideoUri("u");
        v.seekTo(100);
    });
    add(onWidget<VideoView>("VideoView_setVideoUri", video,
                            [](VideoView &v) { v.setVideoUri("other"); }));
    add(onWidget<VideoView>("VideoView_start", video, [](VideoView &v) { v.start(); }));
    add(onWidget<VideoView>("VideoView_pause", video, [](VideoView &v) {
        v.start();
        v.pause();
    }));
    add(onWidget<VideoView>("VideoView_seekTo", video,
                            [](VideoView &v) { v.seekTo(900); }));
    add(restoreFrom<VideoView>("VideoView_restore", video,
                               [](VideoView &v) { v.seekTo(500); }, true));
    add(migrateFrom<VideoView>("VideoView_applyMigration", video,
                               [](VideoView &v) { v.start(); }));
    // Flip sync re-seeks, and restarts a playing peer, on every coin flip.
    const auto playing = tree<VideoView>(plain<VideoView>(), [](VideoView &v) {
        v.setVideoUri("u");
        v.seekTo(100);
        v.start();
    });
    add(keepsMemo(onWidget<VideoView>("VideoView_seekToEqual", video,
                                      [](VideoView &v) { v.seekTo(100); })));
    add(keepsMemo(onWidget<VideoView>("VideoView_startWhilePlaying", playing,
                                      [](VideoView &v) { v.start(); })));
    add(keepsMemo(onWidget<VideoView>("VideoView_pauseWhilePaused", video,
                                      [](VideoView &v) { v.pause(); })));
    add(keepsMemo(
        migrateFrom<VideoView>("VideoView_applyMigrationEqual", playing, noop)));
    return cases;
}

/** The nested state a save linked under the widget's key, if any. */
const Bundle *
linkedState(const Bundle &container)
{
    const auto it = container.entries().find("w");
    return it == container.entries().end()
               ? nullptr
               : std::get<std::shared_ptr<const Bundle>>(it->second).get();
}

class SavedStateMemo
    : public ::testing::TestWithParam<std::tuple<MemoCase, bool>>
{
};

TEST_P(SavedStateMemo, SaveAfterMutationEqualsFreshSave)
{
    const MemoCase &memo_case = std::get<0>(GetParam());
    const bool full = std::get<1>(GetParam());

    std::unique_ptr<View> warm = memo_case.build();
    Bundle before;
    warm->saveHierarchyState(before, full, "r");
    memo_case.mutate(*warm);
    Bundle after;
    warm->saveHierarchyState(after, full, "r");

    std::unique_ptr<View> fresh = memo_case.build();
    memo_case.mutate(*fresh);
    Bundle expected;
    fresh->saveHierarchyState(expected, full, "r");

    EXPECT_TRUE(after == expected)
        << memo_case.name << (full ? " (full)" : " (default)");
    if (memo_case.keeps_memo) {
        // The second save links the very state the first one built.
        EXPECT_EQ(linkedState(after), linkedState(before))
            << memo_case.name << (full ? " (full)" : " (default)");
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryWidgetAndMutator, SavedStateMemo,
    ::testing::Combine(::testing::ValuesIn(memoCases()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<MemoCase, bool>> &info) {
        return std::get<0>(info.param).name +
               (std::get<1>(info.param) ? "_full" : "_default");
    });

TEST(SavedStateMemo, UnchangedViewsLinkTheirMemoisedState)
{
    LinearLayout root("root", LinearLayout::Direction::Vertical);
    auto &image = dynamic_cast<ImageView &>(
        root.addChild(std::make_unique<ImageView>("i")));
    image.setDrawable(DrawableValue{"a", 4, 4});
    auto &edit =
        dynamic_cast<EditText &>(root.addChild(std::make_unique<EditText>("e")));
    edit.typeText("t");

    Bundle first, second;
    root.saveHierarchyState(first, true, "r");
    image.setDrawable(DrawableValue{"a", 4, 4}); // equal: memo kept
    edit.setCursorPosition(0);                   // changed: memo dropped
    root.saveHierarchyState(second, true, "r");

    using Nested = std::shared_ptr<const Bundle>;
    EXPECT_EQ(std::get<Nested>(first.entries().at("i")),
              std::get<Nested>(second.entries().at("i")));
    EXPECT_NE(std::get<Nested>(first.entries().at("e")),
              std::get<Nested>(second.entries().at("e")));
    EXPECT_EQ(second.getBundle("e").getInt("cursor"), 0);
}

} // namespace
} // namespace rchdroid
