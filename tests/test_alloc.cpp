// Allocation regression: the simulator's per-attempt hot path (event queue,
// attempt bookkeeping, policy queries) must not allocate per attempt. This
// binary replaces the global operator new/delete with counting versions and
// replays a fixed, pre-planned S-Resume trace through run_experiment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "trace/google_trace.h"
#include "trace/harness.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace chronos::trace {
namespace {

using strategies::PolicyKind;

TEST(Allocations, SResumeTraceStaysBelowBoundPerLaunchedAttempt) {
  // The trace is generated and planned before counting starts; only the
  // replay is measured.
  TraceConfig trace_config;
  trace_config.num_jobs = 200;
  trace_config.mean_tasks = 20.0;
  trace_config.max_tasks = 100;
  trace_config.seed = 7;
  auto jobs = generate_trace(trace_config);
  const SpotPriceModel prices;
  plan_trace(jobs, PolicyKind::kSResume, PlannerConfig{}, prices);
  const auto config = ExperimentConfig::large_scale(PolicyKind::kSResume, 3);

  g_allocations = 0;
  g_counting = true;
  const auto result = run_experiment(jobs, config);
  g_counting = false;

  const auto launched = result.metrics.attempts_launched();
  ASSERT_GT(launched, result.metrics.jobs());
  const double per_attempt = static_cast<double>(g_allocations.load()) /
                             static_cast<double>(launched);
  std::printf("%llu allocations for %llu launched attempts: %.3f each\n",
              static_cast<unsigned long long>(g_allocations.load()),
              static_cast<unsigned long long>(launched), per_attempt);
  // Measured 0.48: about 11 allocations per job and none per attempt.
  // Returning each policy query as a fresh vector and growing a per-task
  // attempt-id vector measured 3.7 on this trace.
  EXPECT_LT(per_attempt, 0.75);
}

}  // namespace
}  // namespace chronos::trace
