// Microbenchmarks of the analytic core: closed-form evaluation (including
// the closed-form vs. reference-quadrature S-Restart winner time) and
// Algorithm 1. These quantify the per-job planning overhead an Application
// Master would pay at submission (§VI).
#include <benchmark/benchmark.h>

#include "core/chronos.h"

namespace {

using namespace chronos::core;  // NOLINT

JobParams bench_job() {
  JobParams params;
  params.num_tasks = 100;
  params.deadline = 180.0;
  params.t_min = 30.0;
  params.beta = 1.5;
  params.tau_est = 9.0;
  params.tau_kill = 24.0;
  params.phi_est = default_phi_est(params);
  return params;
}

Economics bench_econ() {
  Economics econ;
  econ.price = 0.4;
  econ.theta = 1e-4;
  econ.r_min = 0.3;
  return econ;
}

// BM_Pocd* and BM_Cost* time one free-function call: an AnalyticContext
// built for the call plus one evaluation. Algorithm 1 (BM_Optimize*) builds
// one context per search and reuses it for every r.
void BM_PocdClone(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pocd(Strategy::kClone, params, 2.0));
  }
}
BENCHMARK(BM_PocdClone);

void BM_PocdSResume(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pocd(Strategy::kSpeculativeResume, params, 2.0));
  }
}
BENCHMARK(BM_PocdSResume);

void BM_CostClone(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine_time(Strategy::kClone, params, 2.0));
  }
}
BENCHMARK(BM_CostClone);

// The adaptive-quadrature winner time kept as the validation reference; it
// used to be the body of the S-Restart machine time (and what this benchmark
// measured before the closed form landed), so the before/after join for
// this name tracks the reference's own cost, ~unchanged.
void BM_CostSRestartQuadrature(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s_restart_winner_time_reference(params, 2.0));
  }
}
BENCHMARK(BM_CostSRestartQuadrature);

// The closed-form winner time (log1p/expm1 + geometric 2F1 series), no
// quadrature.
void BM_CostSRestartClosedForm(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine_time(Strategy::kSpeculativeRestart, params, 2.0));
  }
}
BENCHMARK(BM_CostSRestartClosedForm);

void BM_CostSResume(benchmark::State& state) {
  const auto params = bench_job();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        machine_time(Strategy::kSpeculativeResume, params, 2.0));
  }
}
BENCHMARK(BM_CostSResume);

void BM_OptimizeClone(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize(Strategy::kClone, params, econ));
  }
}
BENCHMARK(BM_OptimizeClone);

void BM_OptimizeSRestart(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize(Strategy::kSpeculativeRestart, params, econ));
  }
}
BENCHMARK(BM_OptimizeSRestart);

void BM_OptimizeSResume(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize(Strategy::kSpeculativeResume, params, econ));
  }
}
BENCHMARK(BM_OptimizeSResume);

void BM_OptimizeAll(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_all(params, econ));
  }
}
BENCHMARK(BM_OptimizeAll);

void BM_BruteForceOptimize(benchmark::State& state) {
  const auto params = bench_job();
  const auto econ = bench_econ();
  OptimizerOptions options;
  options.max_r = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        brute_force_optimize(Strategy::kClone, params, econ, options));
  }
}
BENCHMARK(BM_BruteForceOptimize)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
