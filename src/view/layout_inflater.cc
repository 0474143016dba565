#include "view/layout_inflater.h"

#include <utility>

#include "platform/strings.h"
#include "view/extra_widgets.h"
#include "view/image_view.h"
#include "view/list_view.h"
#include "view/progress_bar.h"
#include "view/text_view.h"
#include "view/video_view.h"
#include "view/view_group.h"

namespace rchdroid {

namespace {

/** The element name a node was declared with, for error messages. */
std::string
elementName(const CompiledNode &node)
{
    return node.kind == ViewKind::Custom ? node.custom->element
                                         : viewKindName(node.kind);
}

} // namespace

LayoutInflater::LayoutInflater(ResourceManager &resources,
                               SimDuration per_node_inflate_cost)
    : resources_(resources), per_node_inflate_cost_(per_node_inflate_cost)
{
}

Status
LayoutInflater::registerFactory(const std::string &element,
                                ViewFactory factory)
{
    if (viewKindForElement(element) != ViewKind::Custom) {
        return Status::invalidArgument("cannot override builtin element " +
                                       element);
    }
    if (!factory)
        return Status::invalidArgument("null factory for " + element);
    custom_factories_[element] = std::move(factory);
    return Status::ok();
}

Result<Loaded<std::unique_ptr<View>>>
LayoutInflater::inflate(ResourceId layout_id, const Configuration &config)
{
    auto layout = resources_.loadLayout(layout_id, config);
    if (!layout)
        return layout.status();
    auto inflated = inflateCompiled(layout.value().value, config);
    if (!inflated)
        return inflated.status();
    inflated.value().cost += layout.value().cost;
    return inflated;
}

Result<Loaded<std::unique_ptr<View>>>
LayoutInflater::inflateNode(const LayoutNode &node, const Configuration &config)
{
    return inflateCompiled(resources_.table().compileLayout(node), config);
}

Result<Loaded<std::unique_ptr<View>>>
LayoutInflater::inflateCompiled(const CompiledLayout &layout,
                                const Configuration &config)
{
    SimDuration cost = 0;
    std::size_t at = 0;
    auto view = buildSubtree(layout, at, config, cost);
    if (!view)
        return view.status();
    return Loaded<std::unique_ptr<View>>{std::move(view).value(), cost};
}

LayoutInflater::ViewResult
LayoutInflater::buildSubtree(const CompiledLayout &layout, std::size_t &at,
                             const Configuration &config, SimDuration &cost)
{
    const CompiledNode &node = layout.nodes[at++];
    cost += per_node_inflate_cost_;
    auto view = buildView(node, config, cost);
    if (!view || node.child_count == 0)
        return view;
    auto *group = dynamic_cast<ViewGroup *>(view.value().get());
    if (!group)
        return Status::invalidArgument(elementName(node) +
                                       " cannot have children");
    group->reserveChildren(static_cast<std::size_t>(node.child_count));
    for (int i = 0; i < node.child_count; ++i) {
        auto child = buildSubtree(layout, at, config, cost);
        if (!child)
            return child.status();
        group->addChild(std::move(child).value());
    }
    return view;
}

LayoutInflater::ViewResult
LayoutInflater::buildView(const CompiledNode &node, const Configuration &config,
                          SimDuration &cost)
{
    const std::string &id = node.id;
    switch (node.kind) {
      case ViewKind::View:
        return ViewResult(std::make_unique<View>(id));
      case ViewKind::ViewGroup:
      case ViewKind::FrameLayout:
        return ViewResult(std::make_unique<FrameLayout>(id));
      case ViewKind::LinearLayout:
        return ViewResult(std::make_unique<LinearLayout>(
            id, node.horizontal ? LinearLayout::Direction::Horizontal
                                : LinearLayout::Direction::Vertical));
      case ViewKind::ScrollView:
        return ViewResult(std::make_unique<ScrollView>(id));
      case ViewKind::TextView:
        return buildText(std::make_unique<TextView>(id), node, config, cost);
      case ViewKind::Button:
        return buildText(std::make_unique<Button>(id), node, config, cost);
      case ViewKind::EditText:
        return buildText(std::make_unique<EditText>(id), node, config, cost);
      case ViewKind::CheckBox:
        return buildText(std::make_unique<CheckBox>(id), node, config, cost);
      case ViewKind::Switch:
        return buildText(std::make_unique<Switch>(id), node, config, cost);
      case ViewKind::ImageView: {
        auto image = std::make_unique<ImageView>(id);
        // Only a drawable reference sets an image; a literal is ignored.
        if (node.value.source == CompiledValue::Source::Reference) {
            auto drawable = referenceId(node.value, ResourceType::Drawable);
            if (!drawable)
                return drawable.status();
            auto loaded = resources_.loadDrawable(drawable.value(), config);
            if (!loaded)
                return loaded.status();
            cost += loaded.value().cost;
            image->setDrawableFromResource(std::move(loaded).value().value);
        }
        return ViewResult(std::move(image));
      }
      case ViewKind::ProgressBar:
      case ViewKind::SeekBar: {
        std::unique_ptr<ProgressBar> bar;
        if (node.kind == ViewKind::ProgressBar)
            bar = std::make_unique<ProgressBar>(id);
        else
            bar = std::make_unique<SeekBar>(id);
        bar->setMax(node.max);
        bar->setProgress(node.progress);
        return ViewResult(std::move(bar));
      }
      case ViewKind::RatingBar: {
        auto rating = std::make_unique<RatingBar>(id, node.stars);
        rating->setRating(node.rating);
        return ViewResult(std::move(rating));
      }
      case ViewKind::ListView:
        return buildList(std::make_unique<ListView>(id), node, config, cost);
      case ViewKind::GridView:
        return buildList(std::make_unique<GridView>(id, node.columns), node,
                         config, cost);
      case ViewKind::AbsListView:
        return buildList(std::make_unique<AbsListView>(id), node, config,
                         cost);
      case ViewKind::Spinner:
        return buildList(std::make_unique<Spinner>(id), node, config, cost);
      case ViewKind::VideoView: {
        auto video = std::make_unique<VideoView>(id);
        if (!node.value.text.empty())
            video->setVideoUri(node.value.text);
        return ViewResult(std::move(video));
      }
      case ViewKind::Custom:
        break;
    }
    const CustomElement &custom = *node.custom;
    auto it = custom_factories_.find(custom.element);
    if (it == custom_factories_.end())
        return Status::notFound("unknown layout element " + custom.element);
    auto view = it->second(id, custom.attrs);
    if (!view)
        return Status::internal("factory for " + custom.element +
                                " returned null");
    return ViewResult(std::move(view));
}

LayoutInflater::ViewResult
LayoutInflater::buildText(std::unique_ptr<TextView> view,
                          const CompiledNode &node,
                          const Configuration &config, SimDuration &cost)
{
    if (node.value.source != CompiledValue::Source::Absent) {
        auto text = resolveText(node.value, config, cost);
        if (!text)
            return text.status();
        if (node.value.source == CompiledValue::Source::Reference)
            view->setTextFromResource(std::move(text).value());
        else
            view->setText(std::move(text).value());
    }
    // Only EditText nodes compile a hint, and only CheckBox and Switch
    // nodes a checked state.
    if (node.hint.source != CompiledValue::Source::Absent) {
        auto hint = resolveText(node.hint, config, cost);
        if (!hint)
            return hint.status();
        static_cast<EditText &>(*view).setHint(std::move(hint).value());
    }
    if (node.checked)
        static_cast<CheckBox &>(*view).setChecked(true);
    return ViewResult(std::move(view));
}

LayoutInflater::ViewResult
LayoutInflater::buildList(std::unique_ptr<AbsListView> view,
                          const CompiledNode &node,
                          const Configuration &config, SimDuration &cost)
{
    if (node.value.source == CompiledValue::Source::Reference) {
        auto raw = resolveText(node.value, config, cost);
        if (!raw)
            return raw.status();
        view->setItems(splitString(raw.value(), '|'));
    } else if (node.value.source == CompiledValue::Source::Literal) {
        view->setItems(node.items);
    }
    return ViewResult(std::move(view));
}

Result<ResourceId>
LayoutInflater::referenceId(const CompiledValue &value,
                            ResourceType type) const
{
    if (value.id != 0)
        return value.id;
    return resources_.table().idForName(type, value.text);
}

Result<std::string>
LayoutInflater::resolveText(const CompiledValue &value,
                            const Configuration &config, SimDuration &cost)
{
    if (value.source == CompiledValue::Source::Literal)
        return value.text;
    auto id = referenceId(value, ResourceType::String);
    if (!id)
        return id.status();
    auto loaded = resources_.loadString(id.value(), config);
    if (!loaded)
        return loaded.status();
    cost += loaded.value().cost;
    return std::move(loaded).value().value.text;
}

} // namespace rchdroid
