/**
 * @file
 * SimulatedApp: the Activity subclass that behaves like the app an
 * AppSpec describes.
 *
 * The framework never inspects it — it is driven purely through the
 * public Activity lifecycle, exactly as a black-box APK would be. Its
 * app logic covers the behaviours the evaluation needs: critical user
 * state in a configurable widget pattern, optional onSaveInstanceState,
 * optional android:configChanges handling, and the AsyncTask pattern of
 * Fig. 1 that captures raw view references and updates them on return.
 */
#ifndef RCHDROID_APPS_SIMULATED_APP_H
#define RCHDROID_APPS_SIMULATED_APP_H

#include <memory>
#include <vector>

#include "app/activity.h"
#include "app/async_task.h"
#include "apps/app_spec.h"
#include "view/image_view.h"

namespace rchdroid::apps {

/**
 * The spec interpreter.
 */
class SimulatedApp final : public Activity
{
  public:
    /** @param spec Shared by every instance of one installed app. */
    SimulatedApp(std::shared_ptr<const AppSpec> spec, ResourceId main_layout);

    const AppSpec &spec() const { return *spec_; }

    /** @name App-private state (CriticalState::CustomVariable)
     * @{
     */
    int customValue() const { return custom_value_; }
    void setCustomValue(int value) { custom_value_ = value; }
    /** @} */

    /** Tap the update button (starts the AsyncTask when so wired). */
    void clickUpdateButton();

    /** Fire the async update directly (harness convenience). */
    void startAsyncUpdate();

    /** Number of async tasks this instance has started. */
    int asyncTasksStarted() const { return tasks_started_; }

    /** Dialogs this instance created (result dialogs from async). */
    int dialogsShown() const;

  protected:
    void onCreate(const Bundle *saved_state) override;
    void onStop() override;
    void onSaveInstanceState(Bundle &out_state) override;
    void onRestoreInstanceState(const Bundle &saved) override;
    void onConfigurationChanged(const Configuration &config) override;

  private:
    /** The RuntimeDroid patch body: rebuild content in place. */
    void hotReload();

    std::shared_ptr<const AppSpec> spec_;
    ResourceId main_layout_;
    int custom_value_ = 0;
    int tasks_started_ = 0;
    // Weak: a running task is kept alive by the thread's in-flight
    // list (and pins this activity through its owner reference); a
    // strong edge here would close an unreclaimable ownership cycle.
    std::vector<std::weak_ptr<AsyncTask>> tasks_;
    std::vector<std::unique_ptr<Dialog>> dialogs_;
};

} // namespace rchdroid::apps

#endif // RCHDROID_APPS_SIMULATED_APP_H
