// Line stamp for `sweeprun --progress`: when and on which thread a progress
// line was written.
#pragma once

#include <string>

namespace chronos::log {

/// "[2026-08-08T12:34:56.789Z t3]": the current UTC time, ISO-8601 with
/// milliseconds, and a small sequential id of the calling thread (1, 2, ...
/// in order of each thread's first stamp; stable for the thread's life).
std::string stamp();

}  // namespace chronos::log
