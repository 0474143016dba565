/**
 * @file
 * ExecutionContext: where the simulation is "right now", from the
 * analysis layer's point of view.
 *
 * The Analyzer maintains one of these from the dispatch and app-code
 * events; the checkers read it to attribute findings (which thread, which
 * message, inside app code or framework code) without re-deriving the
 * state themselves.
 */
#ifndef RCHDROID_ANALYSIS_EXECUTION_CONTEXT_H
#define RCHDROID_ANALYSIS_EXECUTION_CONTEXT_H

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "os/looper.h"
#include "platform/time.h"

namespace rchdroid::analysis {

/** One in-flight looper dispatch. */
struct DispatchFrame
{
    const Looper *looper = nullptr;
    std::uint64_t msg_id = 0;
    std::string tag;
};

/**
 * Tracks the dispatch stack, the app-code nesting depth, and the last
 * virtual time any event carried.
 */
class ExecutionContext
{
  public:
    void
    pushDispatch(const Looper &looper, std::uint64_t msg_id,
                 const std::string &tag)
    {
        stack_.push_back({&looper, msg_id, tag});
        last_time_ = looper.now();
    }

    void
    popDispatch()
    {
        if (!stack_.empty()) {
            last_time_ = stack_.back().looper->now();
            stack_.pop_back();
        }
    }

    /** The innermost in-flight dispatch, or null outside any dispatch. */
    const DispatchFrame *
    currentFrame() const
    {
        return stack_.empty() ? nullptr : &stack_.back();
    }

    void enterAppCode() { ++app_code_depth_; }
    void exitAppCode()
    {
        if (app_code_depth_ > 0)
            --app_code_depth_;
    }

    /** True inside ActivityThread::runAppCode (the crash guard scope). */
    bool inAppCode() const { return app_code_depth_ > 0; }

    /** Best-known current virtual time. */
    SimTime
    now() const
    {
        if (const DispatchFrame *frame = currentFrame())
            return frame->looper->now();
        return last_time_;
    }

    /** "app.main dispatch #42 'appCallback'" or "<outside dispatch>". */
    std::string
    describeCurrent() const
    {
        const DispatchFrame *frame = currentFrame();
        if (!frame)
            return "<outside dispatch>";
        std::ostringstream os;
        os << frame->looper->name() << " dispatch #" << frame->msg_id;
        if (!frame->tag.empty())
            os << " '" << frame->tag << "'";
        return os.str();
    }

  private:
    std::vector<DispatchFrame> stack_;
    int app_code_depth_ = 0;
    SimTime last_time_ = 0;
};

} // namespace rchdroid::analysis

#endif // RCHDROID_ANALYSIS_EXECUTION_CONTEXT_H
