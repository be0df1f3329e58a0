// Microbenchmarks of the planner service (src/serve/): plans per second
// through the quantized plan cache. Cold = cache off (every request pays a
// full optimize_all), warm-quantized = a pre-warmed geometric-grid cache
// fed jittered shapes that land in warmed buckets (pure hits). The
// warm-quantized/cold ratio is the headline number in BENCH_PR8.json.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "mapreduce/job.h"
#include "serve/planner.h"
#include "strategies/policies.h"
#include "trace/planner.h"

namespace {

using chronos::serve::PlannerService;
using chronos::serve::PlannerServiceConfig;
using chronos::serve::PlanRequest;

constexpr std::size_t kPoolSize = 64;

/// A pool of distinct auto-mode planning requests: shapes spread across
/// num_tasks / t_min / beta / deadline / price like an arrival stream.
struct RequestPool {
  std::vector<chronos::mapreduce::JobSpec> specs;
  std::vector<double> prices;

  explicit RequestPool(double jitter = 0.0) {
    specs.reserve(kPoolSize);
    prices.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      chronos::mapreduce::JobSpec spec;
      spec.stage(0).num_tasks = 20 + static_cast<int>(i % 7) * 20;
      spec.stage(0).t_min = 20.0 + static_cast<double>(i % 5) + jitter;
      spec.stage(0).beta = 1.5 + 0.05 * static_cast<double>(i % 4) + jitter;
      spec.deadline = 150.0 + 10.0 * static_cast<double>(i % 8) + jitter;
      specs.push_back(spec);
      prices.push_back(0.3 + 0.01 * static_cast<double>(i % 6) + jitter);
    }
  }

  PlanRequest request(std::size_t i, chronos::mapreduce::JobSpec& scratch) {
    scratch = specs[i % kPoolSize];
    PlanRequest request;
    request.spec = &scratch;
    request.price = prices[i % kPoolSize];
    request.auto_strategy = true;
    request.policy = chronos::strategies::PolicyKind::kSResume;
    return request;
  }
};

PlannerServiceConfig config_for(double grid) {
  PlannerServiceConfig config;
  config.cache.grid = grid;
  return config;
}

void drive(benchmark::State& state, PlannerService& service,
           RequestPool& pool) {
  chronos::mapreduce::JobSpec scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    auto request = pool.request(i++, scratch);
    benchmark::DoNotOptimize(service.plan(request));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Every request runs the full Algorithm 1 sweep over all three strategies.
void BM_PlansPerSecondCold(benchmark::State& state) {
  PlannerService service(config_for(0.0));
  RequestPool pool;
  drive(state, service, pool);
}
BENCHMARK(BM_PlansPerSecondCold);

// A jittered pool against a cache warmed with the unjittered shapes: the
// jitter (well under one 5% grid step) keeps every request inside a warmed
// bucket, so this measures quantized hits on near-miss inputs.
void BM_PlansPerSecondWarmQuantized(benchmark::State& state) {
  PlannerService service(config_for(0.05));
  RequestPool warm_pool;
  chronos::mapreduce::JobSpec scratch;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    auto request = warm_pool.request(i, scratch);
    service.plan(request);
  }
  RequestPool jittered(1e-4);
  drive(state, service, jittered);
}
BENCHMARK(BM_PlansPerSecondWarmQuantized);

// Full staged planning on a 3-stage chain (two same-shape reduce stages):
// critical-path deadline split plus one Algorithm-1 run per stage. The
// staged analogue of BM_PlansPerSecondCold.
void BM_StagedJobPlan(benchmark::State& state) {
  chronos::mapreduce::JobSpec proto;
  proto.stage(0).num_tasks = 40;
  proto.stage(0).t_min = 25.0;
  proto.stage(0).beta = 1.4;
  proto.deadline = 900.0;
  proto.stages.push_back(
      {.num_tasks = 10, .t_min = 45.0, .beta = 1.7, .deps = {}});
  proto.stages.push_back(
      {.num_tasks = 10, .t_min = 45.0, .beta = 1.7, .deps = {}});
  const chronos::trace::PlannerConfig planner;
  for (auto _ : state) {
    auto spec = proto;
    benchmark::DoNotOptimize(chronos::trace::plan_staged_spec(
        spec, chronos::strategies::PolicyKind::kSResume, planner, 0.4));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StagedJobPlan);

}  // namespace

BENCHMARK_MAIN();
