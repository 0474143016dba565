#include "apps/simulated_app.h"

#include <utility>

#include "app/activity_thread.h"
#include "platform/logging.h"
#include "view/text_view.h"

namespace rchdroid::apps {

SimulatedApp::SimulatedApp(std::shared_ptr<const AppSpec> spec,
                           ResourceId main_layout)
    : Activity(spec->component()),
      spec_(std::move(spec)),
      main_layout_(main_layout)
{
}

void
SimulatedApp::onCreate(const Bundle *saved_state)
{
    (void)saved_state;
    chargeCpu(spec_->app_create_cost);
    setContentView(main_layout_);
    setPrivateHeapBytes(spec_->private_heap_bytes);

    if (auto *btn = findViewByIdAs<Button>("btn")) {
        btn->setOnClickListener([this] {
            if (spec_->async.trigger == AsyncTrigger::OnButtonClick)
                startAsyncUpdate();
        });
    }
    if (spec_->async.trigger == AsyncTrigger::OnCreate)
        startAsyncUpdate();
}

void
SimulatedApp::onStop()
{
    if (spec_->async.cancels_on_stop) {
        for (auto &weak_task : tasks_) {
            if (auto task = weak_task.lock())
                task->cancel();
        }
    }
}

void
SimulatedApp::onSaveInstanceState(Bundle &out_state)
{
    // Only the disciplined apps persist their custom state; the paper's
    // unfixable cases are exactly the apps that do not.
    if (spec_->implements_on_save)
        out_state.putInt("custom_value", custom_value_);
}

void
SimulatedApp::onRestoreInstanceState(const Bundle &saved)
{
    if (saved.contains("custom_value"))
        custom_value_ = static_cast<int>(saved.getInt("custom_value"));
}

void
SimulatedApp::onConfigurationChanged(const Configuration &config)
{
    (void)config;
    chargeCpu(spec_->app_config_cost);
    if (spec_->runtimedroid_patched)
        hotReload();
}

void
SimulatedApp::hotReload()
{
    // The RuntimeDroid patch, in app code: freeze everything, rebuild
    // the content under the new configuration (resources re-resolve
    // through the inflater), thaw everything back. The framework never
    // sees a restart.
    chargeCpu(spec_->hot_reload_cost);
    Bundle frozen = saveInstanceStateNow(/*full=*/true);
    chargeCpu(spec_->app_create_cost); // the app's own UI-build logic
    setContentView(main_layout_);
    if (auto *btn = findViewByIdAs<Button>("btn")) {
        btn->setOnClickListener([this] {
            if (spec_->async.trigger == AsyncTrigger::OnButtonClick)
                startAsyncUpdate();
        });
    }
    window().decorView().restoreHierarchyState(frozen.getBundle("views"),
                                               "r");
}

void
SimulatedApp::clickUpdateButton()
{
    if (auto *btn = findViewByIdAs<Button>("btn"))
        btn->performClick();
}

void
SimulatedApp::startAsyncUpdate()
{
    ActivityThread *thread = context().thread;
    RCH_ASSERT(thread, "async update before attach");
    auto self = thread->activityForToken(token());
    if (!self) {
        // Not registered (unit-test construction); async is meaningless.
        return;
    }

    // The Fig. 1 anti-pattern, verbatim: capture raw view references at
    // task start. After a stock restart these point into the destroyed
    // tree, and onPostExecute's setDrawable throws — crashing the app.
    // A RuntimeDroid patch rewrites these captures into id-based
    // lookups resolved at completion time, so patched apps capture ids.
    std::vector<ImageView *> targets;
    std::vector<std::string> target_ids;
    window().decorView().visit([&](View &v) {
        if (auto *image = dynamic_cast<ImageView *>(&v)) {
            if (spec_->runtimedroid_patched)
                target_ids.push_back(image->id());
            else
                targets.push_back(image);
        }
    });

    auto task = std::make_shared<AsyncTask>(
        *thread, self, spec_->name + "#task" + std::to_string(tasks_started_));
    tasks_.push_back(task);
    ++tasks_started_;

    const int edge = spec_->image_edge_px;
    const bool shows_dialog = spec_->async.shows_dialog;
    // `self` keeps this instance reachable, as the Java reference would;
    // `this` is therefore safe to use inside the callback.
    task->execute(
        spec_->async.duration,
        [this, self, targets, target_ids, edge, shows_dialog] {
            int seq = 0;
            for (ImageView *image : targets) {
                image->setDrawable(DrawableValue{
                    "async_loaded_" + std::to_string(seq++), edge, edge});
            }
            for (const std::string &id : target_ids) {
                // Patched path: re-resolve through the live tree.
                if (auto *image = findViewByIdAs<ImageView>(id)) {
                    image->setDrawable(DrawableValue{
                        "async_loaded_" + std::to_string(seq++), edge,
                        edge});
                }
            }
            if (shows_dialog) {
                // The §2.3 WindowLeaked class: show a result dialog on
                // the activity the task captured. After a stock restart
                // that activity is destroyed and this throws.
                auto dialog =
                    std::make_unique<Dialog>(*this, "download complete");
                dialog->show();
                dialogs_.push_back(std::move(dialog));
            }
        },
        spec_->async.ui_cost);
}

int
SimulatedApp::dialogsShown() const
{
    int n = 0;
    for (const auto &dialog : dialogs_)
        n += dialog->isShowing();
    return n;
}

} // namespace rchdroid::apps
