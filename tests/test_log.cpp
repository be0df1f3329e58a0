#include "common/log.h"

#include <gtest/gtest.h>

#include <regex>
#include <string>
#include <thread>

namespace chronos::log {
namespace {

TEST(Log, StampIsIso8601TimestampAndThreadId) {
  // [2026-08-08T12:34:56.789Z t1]
  const std::regex stamp_re(
      "^\\[\\d{4}-\\d{2}-\\d{2}T\\d{2}:\\d{2}:\\d{2}\\.\\d{3}Z t\\d+\\]$");
  const std::string line = stamp();
  EXPECT_TRUE(std::regex_match(line, stamp_re)) << line;
}

TEST(Log, StampThreadIdsAreStablePerThread) {
  const std::regex tid_re("Z (t\\d+)\\]$");
  const auto tid = [&](const std::string& line) {
    std::smatch match;
    EXPECT_TRUE(std::regex_search(line, match, tid_re)) << line;
    return match[1].str();
  };
  const std::string first = tid(stamp());
  EXPECT_EQ(tid(stamp()), first);
  std::string other;
  std::thread([&] { other = tid(stamp()); }).join();
  EXPECT_NE(other, first);
}

}  // namespace
}  // namespace chronos::log
