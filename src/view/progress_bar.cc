#include "view/progress_bar.h"

#include <algorithm>
#include <utility>

#include "platform/logging.h"

namespace rchdroid {

ProgressBar::ProgressBar(std::string id) : View(std::move(id))
{
}

void
ProgressBar::setProgress(int progress)
{
    requireAlive("setProgress");
    const int clamped = std::clamp(progress, 0, max_);
    if (clamped == progress_)
        return;
    progress_ = clamped;
    invalidate();
}

void
ProgressBar::setMax(int max)
{
    requireAlive("setMax");
    RCH_ASSERT(max > 0, "max must be positive");
    // Flip sync re-stores the same bound on every coin flip: that
    // redraws, but leaves the saved state as it was.
    const int progress = std::min(progress_, max);
    const bool unchanged = max == max_ && progress == progress_;
    max_ = max;
    progress_ = progress;
    if (unchanged)
        invalidateUnchanged();
    else
        invalidate();
}

void
ProgressBar::applyMigration(View &target) const
{
    auto *peer = dynamic_cast<ProgressBar *>(&target);
    RCH_ASSERT(peer, "Progress migration onto ", target.typeName());
    peer->setMax(max_);
    peer->setProgress(progress_);
}

void
ProgressBar::onSaveState(Bundle &state, bool full) const
{
    // Plain ProgressBar progress is app-driven transient state that a
    // stock restart loses (Table 3 #9's "percentage set by the user");
    // the full snapshot keeps it. SeekBar overrides: user-set positions
    // persist by default, as on Android.
    if (full) {
        state.putInt("progress", progress_);
        state.putInt("max", max_);
    }
}

void
ProgressBar::onRestoreState(const Bundle &state)
{
    max_ = static_cast<int>(state.getInt("max", max_));
    progress_ = static_cast<int>(state.getInt("progress", progress_));
}

SeekBar::SeekBar(std::string id) : ProgressBar(std::move(id))
{
}

void
SeekBar::onSaveState(Bundle &state, bool full) const
{
    (void)full;
    // AbsSeekBar persists the user-set position by default.
    state.putInt("progress", progress());
    state.putInt("max", max());
}

} // namespace rchdroid
