/**
 * @file
 * Logging and error-termination helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (simulator bugs), fatal() for user errors that prevent continuing, and
 * warn()/inform() for advisory output. Log output is tagged, logcat-style,
 * because the system under simulation is Android.
 */
#ifndef RCHDROID_PLATFORM_LOGGING_H
#define RCHDROID_PLATFORM_LOGGING_H

#include <cstdint>
#include <sstream>
#include <string>

namespace rchdroid {

/** Severity of a log record. */
enum class LogLevel : std::uint8_t {
    Debug,
    Info,
    Warn,
    Error,
};

/**
 * Global log configuration.
 *
 * Tests silence the logger; benches keep Info so harness progress shows.
 * The minimum level is process-wide (atomic, safe to read from parallel
 * experiment workers); the quiet flag is thread-local so a silencer on
 * one worker thread never mutes the others.
 */
class LogConfig
{
  public:
    /** Minimum level that is actually emitted (process-wide). */
    static LogLevel minLevel();
    /** Raise/lower the emission threshold. */
    static void setMinLevel(LogLevel level);
    /** True while a scoped silencer is active on this thread. */
    static bool quiet();
    static void setQuiet(bool quiet);
};

/** RAII guard that silences all logging on this thread within a scope. */
class ScopedLogSilencer
{
  public:
    ScopedLogSilencer();
    ~ScopedLogSilencer();

    ScopedLogSilencer(const ScopedLogSilencer &) = delete;
    ScopedLogSilencer &operator=(const ScopedLogSilencer &) = delete;

  private:
    bool previous_;
};

/** True when a record at `level` would be emitted on this thread. */
bool logEnabled(LogLevel level);

/** Emit one log record (implementation detail of the macros below). */
void logMessage(LogLevel level, const std::string &tag, const std::string &text);

/** Abort the process for an internal invariant violation. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &text);

/** Exit the process for an unrecoverable user/configuration error. */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &text);

namespace detail {

/** Build a string from stream-style arguments. */
template <typename... Args>
std::string
concatLog(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace rchdroid

/**
 * Log at `level` with a logcat-style tag. The stream arguments are only
 * formatted when the level is enabled, so a filtered record costs one
 * check.
 */
#define RCH_LOG_AT(level, tag, ...) \
    do { \
        if (::rchdroid::logEnabled(level)) { \
            ::rchdroid::logMessage((level), (tag), \
                                   ::rchdroid::detail::concatLog(__VA_ARGS__)); \
        } \
    } while (false)

/** Log at Debug level with a logcat-style tag. */
#define RCH_LOGD(tag, ...) \
    RCH_LOG_AT(::rchdroid::LogLevel::Debug, tag, __VA_ARGS__)

/** Log at Info level with a logcat-style tag. */
#define RCH_LOGI(tag, ...) \
    RCH_LOG_AT(::rchdroid::LogLevel::Info, tag, __VA_ARGS__)

/** Log at Warn level with a logcat-style tag. */
#define RCH_LOGW(tag, ...) \
    RCH_LOG_AT(::rchdroid::LogLevel::Warn, tag, __VA_ARGS__)

/** Log at Error level with a logcat-style tag. */
#define RCH_LOGE(tag, ...) \
    RCH_LOG_AT(::rchdroid::LogLevel::Error, tag, __VA_ARGS__)

/** Abort: something happened that must never happen (simulator bug). */
#define RCH_PANIC(...) \
    ::rchdroid::panicImpl(__FILE__, __LINE__, \
                          ::rchdroid::detail::concatLog(__VA_ARGS__))

/** Exit: the simulation cannot continue due to a user error. */
#define RCH_FATAL(...) \
    ::rchdroid::fatalImpl(__FILE__, __LINE__, \
                          ::rchdroid::detail::concatLog(__VA_ARGS__))

/** Cheap always-on invariant check that panics with context on failure. */
#define RCH_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            RCH_PANIC("assertion failed: " #cond " ", \
                      ::rchdroid::detail::concatLog(__VA_ARGS__)); \
        } \
    } while (false)

#endif // RCHDROID_PLATFORM_LOGGING_H
