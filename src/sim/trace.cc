#include "sim/trace.h"

#include <fstream>
#include <sstream>

#include "os/instrumentation.h"
#include "platform/strings.h"

namespace rchdroid::sim {

void
TraceRecorder::record(const TelemetryEvent &event)
{
    const std::uint32_t id = event.kind.id();
    if (id >= counts_.size())
        counts_.resize(id + 1, 0);
    ++counts_[id];

    seam::EpisodeChange change;
    const bool open = !episodes_.empty() && !episodes_.back().end &&
                      !episodes_.back().aborted;
    const auto last = static_cast<std::int64_t>(episodes_.size()) - 1;
    if (event.kind == kinds::kAtmsConfigChange) {
        if (open) {
            // The previous handling never reached its resume: close it
            // as incomplete so this change's episode cannot steal the
            // eventual resume event (the mis-pairing bug).
            episodes_.back().aborted = true;
            change.closed = last;
            change.aborted = true;
        }
        episodes_.push_back(HandlingEpisode{event.time, std::nullopt, false});
        change.opened = last + 1;
    } else if (event.kind == kinds::kAtmsActivityResumed && open) {
        episodes_.back().end = event.time;
        change.closed = last;
        change.handling_ms = episodes_.back().durationMs();
    }
    events_.push_back(event);
    seam::emit(&seam::Observer::onTelemetry, event, change);
}

std::vector<TelemetryEvent>
TraceRecorder::eventsOfKind(TelemetryKind kind) const
{
    std::vector<TelemetryEvent> out;
    for (const auto &event : events_) {
        if (event.kind == kind)
            out.push_back(event);
    }
    return out;
}

std::size_t
TraceRecorder::countOfKind(TelemetryKind kind) const
{
    const std::uint32_t id = kind.id();
    return id < counts_.size() ? counts_[id] : 0;
}

std::optional<TelemetryEvent>
TraceRecorder::lastOfKind(TelemetryKind kind) const
{
    for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
        if (it->kind == kind)
            return *it;
    }
    return std::nullopt;
}

std::string
TraceRecorder::toCsv() const
{
    std::ostringstream os;
    os << "time_ms,kind,detail,value\n";
    for (const auto &event : events_) {
        std::string detail = event.detail;
        // Minimal CSV quoting: wrap and double embedded quotes.
        std::string quoted = "\"";
        for (char c : detail) {
            if (c == '"')
                quoted += '"';
            quoted += c;
        }
        quoted += '"';
        os << formatDouble(toMillisF(event.time), 3) << ',' << event.kindName()
           << ',' << quoted << ',' << formatDouble(event.value, 3) << '\n';
    }
    return os.str();
}

bool
TraceRecorder::writeCsv(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toCsv();
    return static_cast<bool>(out);
}

double
TraceRecorder::lastHandlingMs() const
{
    for (auto it = episodes_.rbegin(); it != episodes_.rend(); ++it) {
        if (it->completed())
            return it->durationMs();
    }
    return -1.0;
}

} // namespace rchdroid::sim
