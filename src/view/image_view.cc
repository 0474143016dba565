#include "view/image_view.h"

#include <utility>

#include "platform/logging.h"

namespace rchdroid {

ImageView::ImageView(std::string id) : View(std::move(id))
{
}

void
ImageView::setDrawable(DrawableValue drawable)
{
    requireAlive("setDrawable");
    // Flip sync re-sets the same asset on every coin flip: that redraws,
    // but leaves the saved state as it was.
    const bool unchanged = !drawable_from_resource_ && drawable_ == drawable;
    drawable_ = std::move(drawable);
    drawable_from_resource_ = false;
    if (unchanged)
        invalidateUnchanged();
    else
        invalidate();
}

void
ImageView::setDrawableFromResource(DrawableValue drawable)
{
    requireAlive("setDrawableFromResource");
    drawable_ = std::move(drawable);
    drawable_from_resource_ = true;
    invalidate();
}

void
ImageView::clearDrawable()
{
    requireAlive("clearDrawable");
    drawable_.reset();
    drawable_from_resource_ = false;
    invalidate();
}

std::string
ImageView::assetName() const
{
    return drawable_ ? drawable_->asset_name : std::string{};
}

void
ImageView::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<ImageView *>(&target);
    RCH_ASSERT(peer, "Image migration onto ", target.typeName());
    if (drawable_from_resource_) {
        // The peer decoded its own configuration's variant already.
        peer->invalidate();
        return;
    }
    if (drawable_)
        peer->setDrawable(*drawable_);
    else
        peer->clearDrawable();
}

std::size_t
ImageView::memoryFootprintBytes() const
{
    std::size_t bytes = View::memoryFootprintBytes() + 128;
    if (drawable_)
        bytes += drawable_->byteSize();
    return bytes;
}

void
ImageView::onSaveState(Bundle &state, bool full) const
{
    // Stock ImageView saves nothing; RCHDroid's explicit snapshot keeps
    // the asset identity (never bitmap pixels — the sunny instance
    // re-decodes, as the migration policy setDrawable implies).
    // Resource-derived drawables are skipped: the new instance decodes
    // its own configuration's variant.
    if (full && drawable_ && !drawable_from_resource_) {
        state.putString("asset", drawable_->asset_name);
        state.putInt("w", drawable_->width_px);
        state.putInt("h", drawable_->height_px);
    }
}

void
ImageView::onRestoreState(const Bundle &state)
{
    if (state.contains("asset")) {
        DrawableValue v;
        v.asset_name = state.getString("asset");
        v.width_px = static_cast<int>(state.getInt("w"));
        v.height_px = static_cast<int>(state.getInt("h"));
        drawable_ = std::move(v);
        drawable_from_resource_ = false;
    }
}

} // namespace rchdroid
