#include "common/time.h"

#include <cstdio>
#include <ctime>

namespace marlin {

std::string FormatTimestamp(Timestamp ts) {
  if (ts == kInvalidTimestamp) return "invalid";
  const time_t secs = static_cast<time_t>(ts / kMillisPerSecond);
  int ms = static_cast<int>(ts % kMillisPerSecond);
  time_t adjusted = secs;
  if (ms < 0) {  // keep the millisecond component in [0, 999]
    ms += 1000;
    adjusted -= 1;
  }
  struct tm tm_utc;
  gmtime_r(&adjusted, &tm_utc);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec, ms);
  return buf;
}

Timestamp ParseTimestamp(const std::string& iso8601) {
  int year = 0, month = 0, day = 0, hour = 0, min = 0, sec = 0, ms = 0;
  int n = std::sscanf(iso8601.c_str(), "%d-%d-%dT%d:%d:%d.%3d", &year, &month,
                      &day, &hour, &min, &sec, &ms);
  if (n < 6) return kInvalidTimestamp;
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour > 23 ||
      min > 59 || sec > 60) {
    return kInvalidTimestamp;
  }
  struct tm tm_utc = {};
  tm_utc.tm_year = year - 1900;
  tm_utc.tm_mon = month - 1;
  tm_utc.tm_mday = day;
  tm_utc.tm_hour = hour;
  tm_utc.tm_min = min;
  tm_utc.tm_sec = sec;
  const time_t secs = timegm(&tm_utc);
  return static_cast<Timestamp>(secs) * kMillisPerSecond + ms;
}

}  // namespace marlin
