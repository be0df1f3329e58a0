// SchedulerApi::schedule_after alone in its own translation unit, which
// CMakeLists.txt compiles without LTO. The perf ledger's probe wraps this
// symbol at link time (`-Wl,--wrap`, bench/ledger/CMakeLists.txt) to time
// policy timer callbacks; --wrap rewrites only undefined references, so the
// policies' calls must reach the final link as calls to an external symbol,
// not be resolved inside the LTO unit.
#include <utility>

#include "mapreduce/scheduler.h"

namespace chronos::mapreduce {

void SchedulerApi::schedule_after(double delay, std::function<void()> fn) {
  scheduler_.simulator_.after(delay, std::move(fn));
}

}  // namespace chronos::mapreduce
