#include "ams/activity_starter.h"

#include "ams/atms.h"
#include "os/instrumentation.h"
#include "platform/logging.h"

namespace rchdroid {

ActivityStarter::ActivityStarter(Atms &atms) : atms_(atms)
{
}

void
ActivityStarter::startActivityUnchecked(const Intent &intent)
{
    RCH_ASSERT(!intent.component.empty(), "intent without component");
    RCH_ASSERT(!intent.source_process.empty(), "intent without process");

    // Remember the outgoing foreground before any reordering: if a
    // different task comes to the front, its top activity is stopped
    // (which, under RCHDroid, also releases that process's shadow).
    const TaskRecord *previous_front = atms_.stack_.topTask();
    const ActivityToken previous_fg =
        previous_front ? previous_front->top() : kInvalidToken;
    const TaskId previous_front_id =
        previous_front ? previous_front->id() : 0;

    TaskRecord *task = atms_.stack_.taskForProcess(intent.source_process);
    if (!task || intent.hasFlag(kFlagNewTask)) {
        if (!task)
            task = &atms_.stack_.createTask(intent.source_process);
    }
    atms_.stack_.moveTaskToFront(task->id());

    const bool switched_task =
        previous_front && previous_front_id != task->id();
    if (switched_task && previous_fg != kInvalidToken) {
        if (ActivityRecord *prev = atms_.mutableRecordFor(previous_fg)) {
            if (prev->state() == RecordState::Resumed) {
                prev->setState(RecordState::Stopped);
                ActivityClient *prev_client = atms_.clientFor(prev->process());
                const ActivityToken token = previous_fg;
                if (prev_client) {
                    atms_.callClient(prev->process(), [prev_client, token] {
                        prev_client->scheduleStopActivity(token);
                    });
                }
            }
        }
    }

    if (intent.hasFlag(kFlagSunny)) {
        setTaskFromIntentActivity(*task, intent);
        return;
    }

    // Stock same-on-top suppression: with a default flag, creating an
    // activity identical to the current top finishes with creating
    // nothing (paper §3.4) — but a task switched back to the front must
    // still resume its stopped top activity.
    const ActivityRecord *top = atms_.recordFor(task->top());
    if (top && top->component() == intent.component) {
        ++stats_.suppressed_same_top;
        if (top->state() != RecordState::Resumed) {
            ActivityClient *client = atms_.clientFor(top->process());
            const ActivityToken token = top->token();
            if (client) {
                atms_.callClient(top->process(), [client, token] {
                    client->scheduleResumeActivity(token);
                });
            }
        }
        return;
    }

    // A new activity covers the task's previous top: stop it (which,
    // under RCHDroid, also releases that process's shadow instance —
    // the foreground switched).
    const ActivityToken covered = task->top();
    if (ActivityRecord *prev = atms_.mutableRecordFor(covered)) {
        if (prev->state() == RecordState::Resumed) {
            prev->setState(RecordState::Stopped);
            ActivityClient *prev_client = atms_.clientFor(prev->process());
            if (prev_client) {
                atms_.callClient(prev->process(), [prev_client, covered] {
                    prev_client->scheduleStopActivity(covered);
                });
            }
        }
    }

    ActivityRecord &record =
        atms_.createRecord(intent.component, intent.source_process);
    atms_.looper_.consumeCpu(atms_.costs_.record_create);
    task->push(record.token());
    ++stats_.normal_starts;

    LaunchArgs args;
    args.token = record.token();
    args.component = record.component();
    args.config = atms_.config_;
    ActivityClient *client = atms_.clientFor(intent.source_process);
    if (client) {
        atms_.callClient(intent.source_process,
                         [client, args] { client->scheduleLaunchActivity(args); });
    }
}

void
ActivityStarter::setTaskFromIntentActivity(TaskRecord &task,
                                           const Intent &intent)
{
    const ActivityToken previous_top = task.top();
    ActivityRecord *previous_record = atms_.mutableRecordFor(previous_top);
    seam::Span span("rch.coinFlip", intent.component, "rch");

    // Coin-flip probe: is there a live shadow record for this component
    // in the current task?
    int visited = 0;
    auto lookup = [this](ActivityToken token) -> const ActivityRecord * {
        return atms_.recordFor(token);
    };
    auto shadow_token = atms_.stack_.findShadowActivityLocked(
        task, intent.component, lookup, visited);
    atms_.looper_.consumeCpu(atms_.costs_.stack_search_per_record * visited);

    ActivityClient *client = atms_.clientFor(intent.source_process);

    if (shadow_token) {
        // Flip: the shadow record becomes the top (sunny) record and the
        // displaced foreground record takes the shadow flag (Fig. 6(2)).
        atms_.looper_.consumeCpu(atms_.costs_.flip_reorder);
        ActivityRecord *shadow_record = atms_.mutableRecordFor(*shadow_token);
        RCH_ASSERT(shadow_record, "shadow token without record");
        task.moveToTop(*shadow_token);
        shadow_record->setShadow(false, atms_.scheduler_.now());
        shadow_record->setConfiguration(atms_.config_);
        shadow_record->setState(RecordState::Launching);
        if (previous_record) {
            previous_record->setShadow(true, atms_.scheduler_.now());
            previous_record->setState(RecordState::Stopped);
        }
        ++stats_.coin_flips;
        atms_.emitEvent(kinds::kAtmsCoinFlip, intent.component,
                        static_cast<double>(*shadow_token));

        LaunchArgs args;
        args.token = *shadow_token;
        args.component = intent.component;
        args.config = atms_.config_;
        args.sunny = true;
        args.flipped = true;
        args.shadowed_token = previous_top;
        if (client) {
            atms_.callClient(intent.source_process, [client, args] {
                client->scheduleLaunchActivity(args);
            });
        }
        return;
    }

    // No live shadow record: create a second instance of the component
    // (permitted only under the sunny flag) and push it on the same task
    // stack; the displaced record enters the shadow state (Fig. 6(1)).
    ActivityRecord &record =
        atms_.createRecord(intent.component, intent.source_process);
    atms_.looper_.consumeCpu(atms_.costs_.record_create);
    task.push(record.token());
    if (previous_record) {
        previous_record->setShadow(true, atms_.scheduler_.now());
        previous_record->setState(RecordState::Stopped);
    }
    ++stats_.sunny_creates;
    atms_.emitEvent(kinds::kAtmsSunnyCreate, intent.component,
                    static_cast<double>(record.token()));

    LaunchArgs args;
    args.token = record.token();
    args.component = record.component();
    args.config = atms_.config_;
    args.sunny = true;
    args.flipped = false;
    args.shadowed_token = previous_top;
    if (client) {
        atms_.callClient(intent.source_process, [client, args] {
            client->scheduleLaunchActivity(args);
        });
    }
}

} // namespace rchdroid
