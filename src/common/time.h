#ifndef MARLIN_COMMON_TIME_H_
#define MARLIN_COMMON_TIME_H_

/// \file time.h
/// \brief Event-time primitives shared by every streaming component.
///
/// All timestamps in MARLIN are milliseconds since the Unix epoch (UTC),
/// carried as a strong-ish typedef `Timestamp`. Durations are millisecond
/// counts.

#include <cstdint>
#include <string>

namespace marlin {

/// Milliseconds since 1970-01-01T00:00:00Z.
using Timestamp = int64_t;

/// Millisecond span between two timestamps.
using DurationMs = int64_t;

/// \brief Sentinel for "no timestamp".
inline constexpr Timestamp kInvalidTimestamp = INT64_MIN;

/// \brief Smallest / largest representable event times used as query bounds.
inline constexpr Timestamp kMinTimestamp = INT64_MIN + 1;
inline constexpr Timestamp kMaxTimestamp = INT64_MAX;

inline constexpr DurationMs kMillisPerSecond = 1000;
inline constexpr DurationMs kMillisPerMinute = 60 * kMillisPerSecond;
inline constexpr DurationMs kMillisPerHour = 60 * kMillisPerMinute;
inline constexpr DurationMs kMillisPerDay = 24 * kMillisPerHour;

/// \brief Converts fractional seconds to a millisecond duration.
constexpr DurationMs Seconds(double s) {
  return static_cast<DurationMs>(s * kMillisPerSecond);
}
/// \brief Converts fractional minutes to a millisecond duration.
constexpr DurationMs Minutes(double m) {
  return static_cast<DurationMs>(m * kMillisPerMinute);
}
/// \brief Converts fractional hours to a millisecond duration.
constexpr DurationMs Hours(double h) {
  return static_cast<DurationMs>(h * kMillisPerHour);
}

/// \brief Formats a timestamp as ISO-8601 "YYYY-MM-DDTHH:MM:SS.mmmZ".
std::string FormatTimestamp(Timestamp ts);

/// \brief Parses "YYYY-MM-DDTHH:MM:SS[.mmm][Z]". Returns kInvalidTimestamp on
/// malformed input.
Timestamp ParseTimestamp(const std::string& iso8601);

}  // namespace marlin

#endif  // MARLIN_COMMON_TIME_H_
