/**
 * @file
 * Virtual time types for the discrete-event simulation.
 *
 * All framework latencies in this reproduction are expressed in virtual
 * nanoseconds. Nothing in the simulator reads the host clock, which keeps
 * every experiment bit-reproducible.
 */
#ifndef RCHDROID_PLATFORM_TIME_H
#define RCHDROID_PLATFORM_TIME_H

#include <cstdint>
#include <string>

namespace rchdroid {

/** Virtual simulation time, in nanoseconds since simulation start. */
using SimTime = std::int64_t;

/** A span of virtual time, in nanoseconds. */
using SimDuration = std::int64_t;

/** Sentinel for "no deadline / never". */
inline constexpr SimTime kSimTimeNever = INT64_MAX;

/** @name Duration constructors
 * Readable literals for building durations.
 * @{
 */
constexpr SimDuration nanoseconds(std::int64_t n) { return n; }
constexpr SimDuration microseconds(std::int64_t us) { return us * 1'000; }
constexpr SimDuration milliseconds(std::int64_t ms) { return ms * 1'000'000; }
constexpr SimDuration seconds(std::int64_t s) { return s * 1'000'000'000; }
constexpr SimDuration minutes(std::int64_t m) { return m * 60'000'000'000; }
/** @} */

/** @name Duration accessors
 * Convert a duration (or absolute time) to coarser units.
 * @{
 */
constexpr double toMillisF(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double toMicrosF(SimDuration d) { return static_cast<double>(d) / 1e3; }
constexpr double toSecondsF(SimDuration d) { return static_cast<double>(d) / 1e9; }
constexpr std::int64_t toMillis(SimDuration d) { return d / 1'000'000; }
/** @} */

/** Format a virtual time as "123.456ms" for traces and logs. */
std::string formatSimTime(SimTime t);

} // namespace rchdroid

#endif // RCHDROID_PLATFORM_TIME_H
