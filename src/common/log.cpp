#include "common/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace chronos::log {

namespace {

/// std::thread::id values are opaque and noisy in a log line.
unsigned thread_ordinal() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

std::string stamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  // gmtime_r + snprintf, so the result is locale-independent.
  char out[48];
  std::snprintf(out, sizeof(out), "[%04d-%02d-%02dT%02d:%02d:%02d.%03dZ t%u]",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(ms),
                thread_ordinal());
  return out;
}

}  // namespace chronos::log
