#include "os/looper.h"

#include <algorithm>
#include <utility>

#include "os/instrumentation.h"
#include "platform/logging.h"

namespace rchdroid {

thread_local Looper *Looper::current_ = nullptr;

Looper::Looper(SimScheduler &scheduler, std::string name)
    : scheduler_(scheduler), name_(std::move(name))
{
    seam::emit(&seam::Observer::onLooperCreated, *this);
}

Looper::~Looper()
{
    if (wakeup_event_ != kInvalidEventId)
        scheduler_.cancel(wakeup_event_);
    seam::emit(&seam::Observer::onLooperDestroyed, *this);
}

void
Looper::enqueue(Message msg)
{
    msg.when = std::max(msg.when, scheduler_.now());
    msg.analysis_id = ++next_msg_id_;
    // A message accepted inside a raw scheduler hop that carries a flow
    // id (a binder leg) inherits it: the edge then spans the binder send
    // site to this message's dispatch, so the binder latency counts as
    // queue wait.
    if (msg.causal_id == 0)
        msg.causal_id = scheduler_.currentCausal();
    seam::emit(&seam::Observer::onMessageSend, this, msg.analysis_id,
               msg.when, msg.tag, msg.causal_id);
    queue_.enqueue(std::move(msg));
    armWakeup();
}

void
Looper::post(std::function<void()> fn, SimDuration delay, SimDuration cost,
             std::string tag)
{
    Message msg;
    msg.callback = std::move(fn);
    msg.when = scheduler_.now() + delay;
    msg.cost = cost;
    msg.tag = std::move(tag);
    enqueue(std::move(msg));
}

void
Looper::consumeCpu(SimDuration extra)
{
    RCH_ASSERT(dispatching_, "consumeCpu outside a dispatch on ", name_);
    RCH_ASSERT(extra >= 0, "negative cpu cost ", extra);
    current_cost_ += extra;
}

SimTime
Looper::currentCostEnd() const
{
    RCH_ASSERT(dispatching_, "currentCostEnd outside a dispatch on ", name_);
    return current_start_ + current_cost_;
}

std::size_t
Looper::removeByToken(const void *token)
{
    return queue_.removeByToken(token);
}

std::size_t
Looper::removeByWhat(const void *token, int what)
{
    return queue_.removeByWhat(token, what);
}

void
Looper::armWakeup()
{
    if (dispatching_) {
        // Re-armed after the in-flight dispatch finishes.
        return;
    }
    auto next = queue_.nextWhen();
    if (!next) {
        if (wakeup_event_ != kInvalidEventId) {
            scheduler_.cancel(wakeup_event_);
            wakeup_event_ = kInvalidEventId;
        }
        return;
    }
    const SimTime target =
        std::max({*next, busy_until_, scheduler_.now()});
    if (wakeup_event_ != kInvalidEventId)
        scheduler_.cancel(wakeup_event_);
    // The label makes this wakeup visible to the model checker's
    // NondetSeam as "this looper is runnable": a looper has at most one
    // armed wakeup, so the label names the simulated thread uniquely.
    wakeup_event_ = scheduler_.scheduleAt(target, [this] { onWakeup(); },
                                          EventLabel{this, name_.c_str()});
}

void
Looper::onWakeup()
{
    wakeup_event_ = kInvalidEventId;
    auto msg = queue_.popDue(scheduler_.now());
    if (!msg) {
        // The head message moved (removed or re-ordered); re-arm.
        armWakeup();
        return;
    }

    dispatching_ = true;
    current_start_ = scheduler_.now();
    current_cost_ = msg->cost;
    Looper *previous_current = current();
    setCurrent(this);
    seam::emit(&seam::Observer::onDispatchBegin, *this, *msg);

    msg->callback();

    seam::emit(&seam::Observer::onDispatchEnd, *this);
    setCurrent(previous_current);
    busy_until_ = current_start_ + current_cost_;
    total_busy_ += current_cost_;
    ++dispatched_;
    if (observer_ && current_cost_ > 0) {
        observer_->onBusyInterval(name_, current_start_, busy_until_,
                                  msg->tag);
    }
    dispatching_ = false;
    armWakeup();
}

} // namespace rchdroid
