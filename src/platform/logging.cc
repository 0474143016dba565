#include "platform/logging.h"

#include "platform/compiler.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace rchdroid {

namespace {

// The minimum level is process-wide (set once at startup, read from any
// worker thread of a parallel experiment run), so it is atomic. The quiet
// flag is thread-local: ScopedLogSilencer is inherently scope-confined,
// and a silencer on one worker must not mute the others.
std::atomic<LogLevel> g_min_level{LogLevel::Warn};
thread_local bool g_quiet = false;

// All g_quiet access goes through these two (see RCHDROID_NO_SANITIZE_NULL
// in platform/compiler.h for the GCC 12 TLS miscompile they work around).
RCHDROID_NO_SANITIZE_NULL bool
readQuiet()
{
    return g_quiet;
}

RCHDROID_NO_SANITIZE_NULL void
writeQuiet(bool quiet)
{
    g_quiet = quiet;
}

const char *
levelTag(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "D";
      case LogLevel::Info: return "I";
      case LogLevel::Warn: return "W";
      case LogLevel::Error: return "E";
    }
    return "?";
}

} // namespace

LogLevel
LogConfig::minLevel()
{
    return g_min_level.load(std::memory_order_relaxed);
}

void
LogConfig::setMinLevel(LogLevel level)
{
    g_min_level.store(level, std::memory_order_relaxed);
}

bool
LogConfig::quiet()
{
    return readQuiet();
}

void
LogConfig::setQuiet(bool quiet)
{
    writeQuiet(quiet);
}

ScopedLogSilencer::ScopedLogSilencer() : previous_(readQuiet())
{
    writeQuiet(true);
}

ScopedLogSilencer::~ScopedLogSilencer()
{
    writeQuiet(previous_);
}

bool
logEnabled(LogLevel level)
{
    return !readQuiet() &&
           level >= g_min_level.load(std::memory_order_relaxed);
}

void
logMessage(LogLevel level, const std::string &tag, const std::string &text)
{
    if (!logEnabled(level))
        return;
    std::fprintf(stderr, "%s/%s: %s\n", levelTag(level), tag.c_str(),
                 text.c_str());
}

void
panicImpl(const char *file, int line, const std::string &text)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", text.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &text)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", text.c_str(), file, line);
    std::exit(1);
}

} // namespace rchdroid
