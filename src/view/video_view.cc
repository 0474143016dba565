#include "view/video_view.h"

#include <utility>

#include "platform/logging.h"

namespace rchdroid {

VideoView::VideoView(std::string id) : View(std::move(id))
{
}

void
VideoView::setVideoUri(std::string uri)
{
    requireAlive("setVideoURI");
    if (uri == video_uri_)
        return;
    video_uri_ = std::move(uri);
    position_ms_ = 0;
    playing_ = false;
    invalidate();
}

void
VideoView::start()
{
    requireAlive("start");
    RCH_ASSERT(!video_uri_.empty(), "start without a video URI");
    const bool unchanged = playing_;
    playing_ = true;
    if (unchanged)
        invalidateUnchanged();
    else
        invalidate();
}

void
VideoView::pause()
{
    requireAlive("pause");
    const bool unchanged = !playing_;
    playing_ = false;
    if (unchanged)
        invalidateUnchanged();
    else
        invalidate();
}

void
VideoView::seekTo(std::int64_t position_ms)
{
    requireAlive("seekTo");
    RCH_ASSERT(position_ms >= 0, "negative seek");
    // Flip sync re-seeks to the held position on every coin flip: that
    // redraws, but leaves the saved state as it was.
    const bool unchanged = position_ms == position_ms_;
    position_ms_ = position_ms;
    if (unchanged)
        invalidateUnchanged();
    else
        invalidate();
}

void
VideoView::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<VideoView *>(&target);
    RCH_ASSERT(peer, "Video migration onto ", target.typeName());
    if (!video_uri_.empty() && peer->videoUri() != video_uri_)
        peer->setVideoUri(video_uri_);
    peer->seekTo(position_ms_);
    if (playing_)
        peer->start();
}

std::size_t
VideoView::memoryFootprintBytes() const
{
    // Surface + codec buffers dominate a live VideoView.
    std::size_t bytes = View::memoryFootprintBytes() + 1024;
    if (!video_uri_.empty())
        bytes += 2 * 1024 * 1024;
    return bytes;
}

void
VideoView::onSaveState(Bundle &state, bool full) const
{
    // Stock VideoView loses the playback session on restart; only the
    // full snapshot carries it (the KJVBible timer-style losses).
    if (full) {
        state.putString("uri", video_uri_);
        state.putInt("positionMs", position_ms_);
        state.putBool("playing", playing_);
    }
}

void
VideoView::onRestoreState(const Bundle &state)
{
    video_uri_ = state.getString("uri", video_uri_);
    position_ms_ = state.getInt("positionMs", position_ms_);
    playing_ = state.getBool("playing", playing_);
}

} // namespace rchdroid
