/**
 * @file
 * ViewGroup and the container widgets: LinearLayout, FrameLayout,
 * ScrollView, and DecorView, mirroring android.view.ViewGroup and
 * android.widget containers.
 *
 * Carries the Table 2 RCHDroid additions: dispatchShadowStateChanged and
 * dispatchSunnyStateChanged, which propagate the new states down the
 * tree.
 */
#ifndef RCHDROID_VIEW_VIEW_GROUP_H
#define RCHDROID_VIEW_VIEW_GROUP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "view/view.h"

namespace rchdroid {

/**
 * A view that owns an ordered list of children.
 */
class ViewGroup : public View
{
  public:
    explicit ViewGroup(std::string id);

    const char *typeName() const override { return "ViewGroup"; }

    /** Append a child; the group takes ownership. */
    View &addChild(std::unique_ptr<View> child);

    /** Make room for `count` children (an inflater knows the count). */
    void reserveChildren(std::size_t count) { children_.reserve(count); }

    /** Remove (and destroy) the child at index. */
    void removeChildAt(std::size_t index);

    /** Detach and return the child at index without destroying it. */
    std::unique_ptr<View> detachChildAt(std::size_t index);

    std::size_t childCount() const { return children_.size(); }
    View &childAt(std::size_t index);
    const View &childAt(std::size_t index) const;

    /** @name RCHDroid state dispatch (Table 2: ViewGroup modifications)
     * @{
     */
    /** Set the shadow flag on this subtree. */
    void dispatchShadowStateChanged(bool shadow);
    /** Set the sunny flag on this subtree. */
    void dispatchSunnyStateChanged(bool sunny);
    /** @} */

    void visit(const std::function<void(View &)> &fn) override;
    void visitConst(
        const std::function<void(const View &)> &fn) const override;
    View *findViewById(const std::string &id) override;

    std::size_t memoryFootprintBytes() const override;

    /**
     * Lay out children within the given frame. Containers override to
     * implement their arrangement; the base stacks children like
     * FrameLayout.
     */
    virtual void layoutSubtree(int left, int top, int width, int height);

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;
    void dispatchSaveChildren(Bundle &container, bool full,
                              const std::string &path) const override;
    void dispatchRestoreChildren(const Bundle &container,
                                 const std::string &path) override;

    const std::vector<std::unique_ptr<View>> &children() const
    { return children_; }

  private:
    std::vector<std::unique_ptr<View>> children_;
};

/**
 * Stacks children vertically or horizontally, like
 * android.widget.LinearLayout.
 */
class LinearLayout : public ViewGroup
{
  public:
    enum class Direction : std::uint8_t { Vertical, Horizontal };

    LinearLayout(std::string id, Direction direction);

    const char *typeName() const override { return "LinearLayout"; }
    Direction direction() const { return direction_; }

    void layoutSubtree(int left, int top, int width, int height) override;

  private:
    Direction direction_;
};

/**
 * Overlays children, like android.widget.FrameLayout.
 */
class FrameLayout : public ViewGroup
{
  public:
    explicit FrameLayout(std::string id);
    const char *typeName() const override { return "FrameLayout"; }
};

/**
 * A scrolling container with a persisted vertical offset. The paper's
 * Disney+ example (Fig. 13b: "the scroll location is reset after the
 * restart") is exactly this state.
 */
class ScrollView : public ViewGroup
{
  public:
    explicit ScrollView(std::string id);

    const char *typeName() const override { return "ScrollView"; }
    MigrationClass migrationClass() const override
    { return MigrationClass::Scroll; }

    int scrollY() const { return scroll_y_; }
    void scrollTo(int y);

    void applyMigration(View &target) const override;

  protected:
    void onSaveState(Bundle &state, bool full) const override;
    void onRestoreState(const Bundle &state) override;

  private:
    int scroll_y_ = 0;
};

/**
 * The root of an activity's view tree, mirroring
 * com.android.internal.policy.DecorView (paper §2.1: "The root of the
 * view tree is called decor view").
 */
class DecorView : public ViewGroup
{
  public:
    DecorView();
    const char *typeName() const override { return "DecorView"; }

    std::size_t memoryFootprintBytes() const override;
};

} // namespace rchdroid

#endif // RCHDROID_VIEW_VIEW_GROUP_H
