#include "resources/resource_table.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <utility>

#include "platform/logging.h"
#include "platform/strings.h"

namespace rchdroid {

bool
ResourceQualifier::matches(const Configuration &config) const
{
    if (orientation && *orientation != config.orientation)
        return false;
    if (locale && *locale != config.locale)
        return false;
    if (min_smallest_width_px) {
        const int smallest =
            std::min(config.screen_width_px, config.screen_height_px);
        if (smallest < *min_smallest_width_px)
            return false;
    }
    if (keyboard && *keyboard != config.keyboard)
        return false;
    return true;
}

int
ResourceQualifier::specificity() const
{
    int score = 0;
    score += orientation.has_value();
    score += locale.has_value();
    score += min_smallest_width_px.has_value();
    score += keyboard.has_value();
    return score;
}

std::string
ResourceQualifier::toString() const
{
    std::ostringstream os;
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ',';
        first = false;
    };
    if (orientation) {
        sep();
        os << (*orientation == Orientation::Portrait ? "port" : "land");
    }
    if (locale) {
        sep();
        os << *locale;
    }
    if (min_smallest_width_px) {
        sep();
        os << "sw" << *min_smallest_width_px;
    }
    if (keyboard) {
        sep();
        os << (*keyboard == KeyboardState::Attached ? "kbd" : "nokbd");
    }
    if (first)
        os << "any";
    return os.str();
}

ResourceQualifier
ResourceQualifier::forOrientation(Orientation o)
{
    ResourceQualifier q;
    q.orientation = o;
    return q;
}

ResourceQualifier
ResourceQualifier::forLocale(std::string locale)
{
    ResourceQualifier q;
    q.locale = std::move(locale);
    return q;
}

int
LayoutNode::countNodes() const
{
    int n = 1;
    for (const auto &child : children)
        n += child.countNodes();
    return n;
}

namespace {

/** Element names of the builtin kinds, in ViewKind order. */
constexpr const char *kViewKindNames[] = {
    "View",        "ViewGroup",   "LinearLayout", "FrameLayout",
    "ScrollView",  "TextView",    "Button",       "EditText",
    "CheckBox",    "ImageView",   "ProgressBar",  "SeekBar",
    "ListView",    "GridView",    "AbsListView",  "VideoView",
    "Spinner",     "Switch",      "RatingBar",
};
static_assert(std::size(kViewKindNames) ==
                  static_cast<std::size_t>(ViewKind::Custom),
              "one name per builtin kind");

const std::string *
findAttr(const LayoutNode &node, const char *key)
{
    auto it = node.attrs.find(key);
    return it != node.attrs.end() ? &it->second : nullptr;
}

bool
attrEquals(const LayoutNode &node, const char *key, const char *expected)
{
    const std::string *value = findAttr(node, key);
    return value && *value == expected;
}

int
intAttr(const LayoutNode &node, const char *key, int fallback)
{
    const std::string *value = findAttr(node, key);
    return value ? std::atoi(value->c_str()) : fallback;
}

} // namespace

ViewKind
viewKindForElement(const std::string &element)
{
    for (std::size_t i = 0; i < std::size(kViewKindNames); ++i) {
        if (element == kViewKindNames[i])
            return static_cast<ViewKind>(i);
    }
    return ViewKind::Custom;
}

const char *
viewKindName(ViewKind kind)
{
    const auto index = static_cast<std::size_t>(kind);
    return index < std::size(kViewKindNames) ? kViewKindNames[index] : "";
}

CompiledLayout
ResourceTable::compileLayout(const LayoutNode &root) const
{
    CompiledLayout layout;
    layout.nodes.reserve(static_cast<std::size_t>(root.countNodes()));
    compileNode(root, layout);
    return layout;
}

CompiledValue
ResourceTable::compileValue(const LayoutNode &node, const char *attr,
                            ResourceType type) const
{
    CompiledValue out;
    const std::string *raw = findAttr(node, attr);
    if (!raw)
        return out;
    const std::string prefix =
        type == ResourceType::String ? "@string/" : "@drawable/";
    if (!startsWith(*raw, prefix)) {
        out.source = CompiledValue::Source::Literal;
        out.text = *raw;
        return out;
    }
    out.source = CompiledValue::Source::Reference;
    std::string name = raw->substr(prefix.size());
    if (auto id = idForName(type, name))
        out.id = id.value();
    else
        out.text = std::move(name);
    return out;
}

void
ResourceTable::compileNode(const LayoutNode &node, CompiledLayout &out) const
{
    CompiledNode compiled;
    compiled.kind = viewKindForElement(node.element);
    compiled.child_count = static_cast<int>(node.children.size());
    if (const std::string *id = findAttr(node, "id"))
        compiled.id = *id;

    switch (compiled.kind) {
      case ViewKind::LinearLayout:
        compiled.horizontal = attrEquals(node, "orientation", "horizontal");
        break;
      case ViewKind::TextView:
      case ViewKind::Button:
      case ViewKind::EditText:
      case ViewKind::CheckBox:
      case ViewKind::Switch:
        compiled.value = compileValue(node, "text", ResourceType::String);
        if (compiled.kind == ViewKind::EditText)
            compiled.hint = compileValue(node, "hint", ResourceType::String);
        if (compiled.kind == ViewKind::CheckBox ||
            compiled.kind == ViewKind::Switch)
            compiled.checked = attrEquals(node, "checked", "true");
        break;
      case ViewKind::ImageView:
        compiled.value = compileValue(node, "src", ResourceType::Drawable);
        break;
      case ViewKind::ProgressBar:
      case ViewKind::SeekBar:
        compiled.max = intAttr(node, "max", 100);
        compiled.progress = intAttr(node, "progress", 0);
        break;
      case ViewKind::RatingBar:
        compiled.stars = intAttr(node, "stars", 5);
        compiled.rating = intAttr(node, "rating", 0);
        break;
      case ViewKind::GridView:
        compiled.columns = intAttr(node, "columns", 2);
        [[fallthrough]];
      case ViewKind::ListView:
      case ViewKind::AbsListView:
      case ViewKind::Spinner:
        compiled.value = compileValue(node, "items", ResourceType::String);
        if (compiled.value.source == CompiledValue::Source::Literal)
            compiled.items =
                splitString(std::exchange(compiled.value.text, {}), '|');
        break;
      case ViewKind::VideoView:
        if (const std::string *video = findAttr(node, "video"))
            compiled.value = {CompiledValue::Source::Literal, 0, *video};
        break;
      case ViewKind::Custom:
        compiled.custom = std::make_shared<const CustomElement>(
            CustomElement{node.element, node.attrs});
        break;
      case ViewKind::View:
      case ViewKind::ViewGroup:
      case ViewKind::FrameLayout:
      case ViewKind::ScrollView:
        break;
    }
    out.nodes.push_back(std::move(compiled));
    for (const auto &child : node.children)
        compileNode(child, out);
}

template <typename T>
ResourceId
ResourceTable::add(EntrySet<T> &set, ResourceType type,
                   const std::string &name, ResourceQualifier qual, T value)
{
    RCH_ASSERT(!name.empty(), "resource name must be non-empty");
    ResourceId id;
    auto it = set.ids.find(name);
    if (it != set.ids.end()) {
        id = it->second;
    } else {
        id = makeResourceId(type, set.next_index++);
        set.ids.emplace(name, id);
    }
    set.variants[id].push_back(Variant<T>{std::move(qual), std::move(value)});
    return id;
}

template <typename T>
Result<const T *>
ResourceTable::find(const EntrySet<T> &set, ResourceId id,
                    const Configuration &config) const
{
    auto it = set.variants.find(id);
    if (it == set.variants.end())
        return Status::notFound("unknown resource id");
    const Variant<T> *best = nullptr;
    for (const auto &variant : it->second) {
        if (!variant.qualifier.matches(config))
            continue;
        if (!best ||
            variant.qualifier.specificity() > best->qualifier.specificity()) {
            best = &variant;
        }
    }
    if (!best) {
        return Status::notFound("no variant matches config " +
                                config.toString());
    }
    return &best->value;
}

template <typename T>
Result<T>
ResourceTable::resolve(const EntrySet<T> &set, ResourceId id,
                       const Configuration &config) const
{
    auto found = find(set, id, config);
    if (!found)
        return found.status();
    return *found.value();
}

ResourceId
ResourceTable::addString(const std::string &name, ResourceQualifier qual,
                         StringValue value)
{
    return add(strings_, ResourceType::String, name, std::move(qual),
               std::move(value));
}

ResourceId
ResourceTable::addDrawable(const std::string &name, ResourceQualifier qual,
                           DrawableValue value)
{
    return add(drawables_, ResourceType::Drawable, name, std::move(qual),
               std::move(value));
}

ResourceId
ResourceTable::addLayout(const std::string &name, ResourceQualifier qual,
                         const LayoutValue &value)
{
    return add(layouts_, ResourceType::Layout, name, std::move(qual),
               compileLayout(value.root));
}

ResourceId
ResourceTable::addDimension(const std::string &name, ResourceQualifier qual,
                            DimensionValue value)
{
    return add(dimensions_, ResourceType::Dimension, name, std::move(qual),
               std::move(value));
}

Result<ResourceId>
ResourceTable::idForName(ResourceType type, const std::string &name) const
{
    const std::map<std::string, ResourceId> *ids = nullptr;
    switch (type) {
      case ResourceType::String: ids = &strings_.ids; break;
      case ResourceType::Drawable: ids = &drawables_.ids; break;
      case ResourceType::Layout: ids = &layouts_.ids; break;
      case ResourceType::Dimension: ids = &dimensions_.ids; break;
    }
    RCH_ASSERT(ids, "bad resource type");
    auto it = ids->find(name);
    if (it == ids->end())
        return Status::notFound("no resource named " + name);
    return it->second;
}

Result<StringValue>
ResourceTable::resolveString(ResourceId id, const Configuration &config) const
{
    return resolve(strings_, id, config);
}

Result<DrawableValue>
ResourceTable::resolveDrawable(ResourceId id,
                               const Configuration &config) const
{
    return resolve(drawables_, id, config);
}

Result<LayoutRef>
ResourceTable::resolveLayout(ResourceId id, const Configuration &config) const
{
    auto found = find(layouts_, id, config);
    if (!found)
        return found.status();
    return LayoutRef(*found.value());
}

Result<DimensionValue>
ResourceTable::resolveDimension(ResourceId id,
                                const Configuration &config) const
{
    return resolve(dimensions_, id, config);
}

std::size_t
ResourceTable::countOfType(ResourceType type) const
{
    switch (type) {
      case ResourceType::String: return strings_.ids.size();
      case ResourceType::Drawable: return drawables_.ids.size();
      case ResourceType::Layout: return layouts_.ids.size();
      case ResourceType::Dimension: return dimensions_.ids.size();
    }
    return 0;
}

} // namespace rchdroid
