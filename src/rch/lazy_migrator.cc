#include "rch/lazy_migrator.h"

#include "os/instrumentation.h"
#include "platform/logging.h"

namespace rchdroid {

LazyMigrator::LazyMigrator(const RchConfig &config, RchStats &stats)
    : config_(config), stats_(stats)
{
}

void
LazyMigrator::onViewInvalidated(Activity &activity, View &view)
{
    if (!config_.enable_lazy_migration)
        return;
    if (!activity.isShadow())
        return;
    if (migrating_)
        return;
    View *peer = view.sunnyPeer();
    if (!peer || peer->isDestroyed())
        return;

    migrating_ = true;
    // Charge the interception + typed attribute transfer (Table 1). The
    // fixed interception overhead applies once per UI dispatch (one
    // async-result batch), the per-view cost on every migrated view.
    Looper *looper = activity.context().ui_looper;
    bool new_batch = false;
    if (looper && looper->isDispatching()) {
        const std::uint64_t dispatch_seq = looper->dispatchedMessages();
        if (dispatch_seq != last_dispatch_seq_ || !seen_dispatch_) {
            looper->consumeCpu(activity.context().costs.migrate_batch_base);
            last_dispatch_seq_ = dispatch_seq;
            seen_dispatch_ = true;
            new_batch = true;
        }
        looper->consumeCpu(activity.context().costs.migrate_per_view);
    }
    view.applyMigration(*peer);
    ++migrated_;
    ++stats_.views_migrated;
    seam::emit(&seam::Observer::onViewMigrated, view.typeName(), new_batch);
    migrating_ = false;
}

} // namespace rchdroid
