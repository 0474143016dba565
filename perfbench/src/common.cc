#include "common.h"

#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

namespace perfbench {

std::uint32_t
SpanLog::intern(const char *name)
{
    auto [it, inserted] =
        name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
    if (inserted)
        names_.emplace_back(name);
    return it->second;
}

void
SpanLog::begin(const char *name)
{
    const std::uint32_t id = intern(name);
    const std::int64_t now = hostNs();
    std::int64_t raw_index = -1;
    if (raw_.size() < kKeep) {
        Raw raw;
        raw.name = id;
        raw.parent = stack_.empty() || stack_.back().raw_index < 0
                         ? 0
                         : static_cast<std::uint32_t>(stack_.back().raw_index + 1);
        raw.begin_ns = now;
        raw_index = static_cast<std::int64_t>(raw_.size());
        raw_.push_back(raw);
    }
    stack_.push_back({id, now, 0, raw_index});
}

void
SpanLog::end()
{
    const std::int64_t now = hostNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now - open.begin_ns;
    Aggregate &agg = aggregates_[names_[open.name]];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - open.child_ns;
    if (stack_.empty())
        root_ns_ += duration;
    else
        stack_.back().child_ns += duration;
    if (open.raw_index >= 0)
        raw_[static_cast<std::size_t>(open.raw_index)].end_ns = now;
}

bool
SpanLog::writeJson(const std::string &path, const std::string &header_json) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"header\": %s,\n\"aggregates\": {", header_json.c_str());
    bool first = true;
    for (const auto &[name, agg] : aggregates_) {
        std::fprintf(out, "%s\n  %s: {\"count\": %llu, \"total_ns\": %lld, \"self_ns\": %lld}",
                     first ? "" : ",", jsonString(name).c_str(),
                     static_cast<unsigned long long>(agg.count),
                     static_cast<long long>(agg.total_ns),
                     static_cast<long long>(agg.self_ns));
        first = false;
    }
    std::fprintf(out, "},\n\"names\": [");
    for (std::size_t i = 0; i < names_.size(); ++i)
        std::fprintf(out, "%s%s", i ? ", " : "", jsonString(names_[i]).c_str());
    std::fprintf(out, "],\n\"spans_fields\": [\"name\", \"parent\", \"begin_ns\", \"end_ns\"],\n\"spans\": [");
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const Raw &r = raw_[i];
        std::fprintf(out, "%s\n  [%u, %u, %lld, %lld]", i ? "," : "", r.name, r.parent,
                     static_cast<long long>(r.begin_ns), static_cast<long long>(r.end_ns));
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

void
pinToCurrentCpu()
{
    const int cpu = ::sched_getcpu();
    if (cpu < 0)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

namespace {

std::string
referencePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    const std::string self(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
    return self.substr(0, self.rfind('/') + 1) + "rch_perfbench_ref";
}

} // namespace

double
referenceUs()
{
    static const std::string path = referencePath();
    int fds[2];
    if (::pipe(fds) == 0) {
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::dup2(fds[1], STDOUT_FILENO);
            ::close(fds[0]);
            ::close(fds[1]);
            ::execl(path.c_str(), path.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        ::close(fds[1]);
        std::string out;
        char chunk[64];
        ssize_t n;
        while ((n = ::read(fds[0], chunk, sizeof chunk)) > 0)
            out.append(chunk, static_cast<std::size_t>(n));
        ::close(fds[0]);
        int status = 0;
        const double us = std::atof(out.c_str());
        if (pid > 0 && ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
            WEXITSTATUS(status) == 0 && us > 0.0)
            return us;
    }
    std::fprintf(stderr, "cannot run the host-speed reference %s\n", path.c_str());
    std::exit(3);
}

} // namespace perfbench
