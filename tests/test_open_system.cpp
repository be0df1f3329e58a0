// Open-system simulation layer (sim/open_system.h).
//
// The interesting properties here are statistical laws rather than exact
// values: an under-loaded Poisson-fed cluster must satisfy utilization =
// lambda * E[S] / c and Little's law L = lambda * W, the deadline-miss rate
// must be monotone in the offered rate, and the conservation counters must
// balance exactly. On top of the laws: the Poisson arrival count,
// determinism (same seed => identical results) and validation-hardening
// regressions. The open-system manifests' reports are pinned to committed
// goldens by GoldenShardEquivalence in test_shard.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "serve/planner.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/open_system.h"
#include "trace/spot_price.h"
#include "trace/workload.h"

namespace chronos {
namespace {

using sim::OpenSystemConfig;
using sim::OpenSystemResult;

// --- shared configuration ---------------------------------------------------

// Deterministic job shape: every job has exactly `tasks` tasks with
// Pareto(t_min = 4, beta = 2.5) durations (finite variance, mean
// t_min * beta / (beta - 1) = 20/3 s) and no JVM startup, so the expected
// service demand per job is exact and the queueing laws can be checked
// against closed forms.
constexpr double kTaskMean = 4.0 * 2.5 / 1.5;

OpenSystemConfig base_config(double rate, int nodes, int containers) {
  OpenSystemConfig config;
  config.arrivals.rate = rate;
  // A lognormal of mean 1e6 never draws below 8 (that is 11 sigma down),
  // so the clamp gives every job exactly 8 tasks.
  config.workload.mean_tasks = 1e6;
  config.workload.max_tasks = 8;
  config.workload.t_min_lo = 4.0;
  config.workload.t_min_hi = 4.0;
  config.workload.beta_lo = 2.5;
  config.workload.beta_hi = 2.5;
  config.workload.jvm_mean = 0.0;
  config.workload.jvm_jitter = 0.0;
  config.policy = strategies::PolicyKind::kHadoopNS;
  config.planner.r_min_from_baseline = false;
  config.cluster = sim::ClusterConfig::uniform(
      nodes, sim::NodeConfig{.speed = 1.0, .containers = containers});
  config.duration = 4000.0;
  config.warm_up = 400.0;
  config.seed = 7;
  return config;
}

// --- statistical invariants -------------------------------------------------

TEST(OpenSystemLaws, UtilizationMatchesOfferedLoad) {
  // lambda = 0.5 jobs/s, E[S] = 8 tasks * 20/3 s = 53.33 container-seconds
  // per job, c = 256 containers => rho = lambda * E[S] / c ~ 0.104. Far from
  // saturation, so no offered work is lost and the time-weighted busy
  // fraction must match the offered load.
  const auto result = sim::run_open_system(base_config(0.5, 32, 8));
  const double expected = 0.5 * 8.0 * kTaskMean / 256.0;
  EXPECT_GT(result.metrics.jobs(), 1000u);
  EXPECT_NEAR(result.utilization, expected, 0.08 * expected);
}

TEST(OpenSystemLaws, HeterogeneousFleetUtilizationLaw) {
  // Speed-class law: on a fleet of half full-speed and half half-speed
  // nodes, the grant path balances per-node busy counts (pick_node takes
  // the most-free node), so in the under-loaded regime every node carries
  // the same busy count B and work conservation fixes it:
  //   sum_n s_n * B = lambda * E[S]  =>  u = lambda * E[S] / sum_c C_c s_c.
  // Here E[S] = 8 tasks * 20/3 s of speed-1 work per job and the
  // speed-weighted capacity is 8 * (16 * 1.0 + 16 * 0.5) = 192.
  auto config = base_config(0.5, 32, 8);
  for (int n = 16; n < 32; ++n) {
    config.cluster.nodes[static_cast<std::size_t>(n)].speed = 0.5;
  }
  const auto result = sim::run_open_system(config);
  const double expected = 0.5 * 8.0 * kTaskMean / 192.0;
  EXPECT_GT(result.metrics.jobs(), 1000u);
  EXPECT_NEAR(result.utilization, expected, 0.10 * expected);
  // Sanity: the mixed fleet is busier than the all-fast fleet under the
  // same offered load (it has less speed-weighted capacity).
  EXPECT_GT(result.utilization, 0.5 * 8.0 * kTaskMean / 256.0);
}

TEST(OpenSystemLaws, LittlesLaw) {
  // L = lambda_admitted * W over the same measurement window. Moderate load
  // keeps sojourns short relative to the window so edge effects stay small.
  const auto result = sim::run_open_system(base_config(0.5, 32, 8));
  const double l = result.mean_jobs_in_system;
  const double lambda_w = result.admitted_rate * result.mean_sojourn;
  EXPECT_GT(l, 0.0);
  EXPECT_NEAR(l, lambda_w, 0.15 * lambda_w);
}

TEST(OpenSystemLaws, MissRateMonotoneInArrivalRate) {
  // Same seed, same 16-container cluster, increasing offered rate: queueing
  // delay grows with rho, so the deadline-miss rate must not decrease
  // (small slack for sampling noise between independent runs). Each job's
  // deadline is 2 x 20/3 = 13.3 s; a task overruns it with probability
  // 0.3^2.5 = 0.049, so an unqueued 8-task job misses with probability
  // 1 - 0.951^8 = 0.33 (0.38 and 0.39 measured at 0.02/s and 0.1/s). At
  // 0.4/s the offered load is 0.4 x 53.3 / 16 = 1.33 times capacity.
  // Admission control rejects a job once the backlog plus its 8 tasks
  // would pass 4 x 16 = 64, so the queue stays near that cap (45 pending
  // requests on average at seed 7) instead of growing without bound. A job
  // admitted behind ~50 tasks drained at 16 / (20/3) = 2.4 tasks/s waits
  // about 20 s, past its deadline, so the miss rate rises towards 1 (0.97
  // measured), far above the slack.
  double previous = -1.0;
  for (const double rate : {0.02, 0.1, 0.4}) {
    auto config = base_config(rate, 4, 4);
    const auto result = sim::run_open_system(config);
    EXPECT_GT(result.metrics.jobs(), 10u) << "rate " << rate;
    const double miss_rate = 1.0 - result.metrics.pocd();
    EXPECT_GE(miss_rate, previous - 0.02) << "rate " << rate;
    previous = miss_rate;
  }
}

TEST(OpenSystemLaws, ConservationWithDrain) {
  auto config = base_config(0.4, 4, 4);
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.rejected, 0u);
  EXPECT_EQ(result.arrivals, result.admitted + result.rejected);
  // The event loop runs dry: every admitted job completes.
  EXPECT_EQ(result.admitted, result.completed);
  EXPECT_GE(result.end_time, config.duration);
}

// --- bounded memory ---------------------------------------------------------

TEST(OpenSystemMemory, CompletedJobsLeaveNoSchedulerRecord) {
  // run_open_system ensures on return that the scheduler holds no live
  // record; an overloaded run must get there too.
  const auto result = sim::run_open_system(base_config(1.0, 2, 4));
  EXPECT_GT(result.completed, 100u);
  EXPECT_GT(result.live_jobs_max, 0u);
  EXPECT_LE(result.live_jobs_max, result.in_flight_max);
}

TEST(OpenSystemMemory, LiveRecordsTrackInFlightNotHorizon) {
  // Held records peak with the jobs in flight, at H and at 4H, while the
  // number of completed jobs grows with the horizon.
  for (const double horizon : {2000.0, 8000.0}) {
    auto config = base_config(0.3, 4, 4);
    config.policy = strategies::PolicyKind::kSResume;
    config.duration = horizon;
    const auto result = sim::run_open_system(config);
    EXPECT_GT(result.completed, 10 * result.in_flight_max) << horizon;
    EXPECT_GT(result.live_jobs_max, 0u) << horizon;
    EXPECT_LE(result.live_jobs_max, result.in_flight_max) << horizon;
  }
}

// --- admission control ------------------------------------------------------

TEST(OpenSystemAdmission, OverloadTriggersRejectAndDegrade) {
  // 8 containers fed at ~10x capacity under a speculative policy: the
  // backlog cap must reject and the headroom rule must degrade.
  auto config = base_config(0.8, 2, 4);
  config.policy = strategies::PolicyKind::kSResume;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.rejected, 0u);
  EXPECT_GT(result.degraded, 0u);
  // Degraded jobs run under forced Hadoop-NS; the mix must account for them.
  EXPECT_EQ(result.mix[strategies::PolicyKind::kHadoopNS], result.degraded);
  EXPECT_EQ(result.mix[strategies::PolicyKind::kSResume] + result.degraded,
            result.admitted);
}

TEST(OpenSystemAdmission, ControllerDoesNotPerturbArrivalStream) {
  // The admission decision must not consume randomness: with the same seed,
  // a small and a larger cluster reject different numbers of jobs yet see
  // the same arrival stream.
  auto small = base_config(0.8, 2, 4);
  small.policy = strategies::PolicyKind::kSResume;
  auto large = small;
  large.cluster = sim::ClusterConfig::uniform(
      4, sim::NodeConfig{.speed = 1.0, .containers = 4});
  const auto a = sim::run_open_system(small);
  const auto b = sim::run_open_system(large);
  EXPECT_NE(a.rejected, b.rejected);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.window_arrivals, b.window_arrivals);
}

TEST(OpenSystemAdmission, DegradeCountsEveryStagesSpeculation) {
  // Regression: the headroom rule used to size speculative demand from the
  // root stage alone (r * num_tasks), so a job dominated by a later stage
  // with heavy speculation sailed through undegraded. One map task with
  // r = 0 but 100 reduce tasks at r = 5 demands 500 speculative
  // containers — far beyond any headroom — and must degrade.
  mapreduce::JobSpec spec;
  spec.stage(0).num_tasks = 1;
  spec.stage(0).r = 0;
  spec.stages.push_back({.num_tasks = 100, .r = 5, .deps = {}});
  EXPECT_EQ(sim::admission_decide(spec, /*backlog=*/0.0,
                                  /*idle_containers=*/8.0,
                                  /*total_containers=*/1000.0),
            sim::AdmissionDecision::kDegrade);
  // The same job with the reduce stage's speculation turned off fits.
  spec.stage(1).r = 0;
  EXPECT_EQ(sim::admission_decide(spec, 0.0, 8.0, 1000.0),
            sim::AdmissionDecision::kAdmit);
  // Map-only jobs behave exactly as before the fix.
  mapreduce::JobSpec map_only;
  map_only.stage(0).num_tasks = 1;
  map_only.stage(0).r = 3;
  EXPECT_EQ(sim::admission_decide(map_only, 0.0, 8.0, 1000.0),
            sim::AdmissionDecision::kAdmit);
}

// --- determinism ------------------------------------------------------------

TEST(OpenSystemDeterminism, SameSeedSameResult) {
  auto config = base_config(0.3, 4, 4);
  config.policy = strategies::PolicyKind::kSResume;
  const auto a = sim::run_open_system(config);
  const auto b = sim::run_open_system(config);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.metrics.jobs(), b.metrics.jobs());
  EXPECT_EQ(a.metrics.total_r_used(), b.metrics.total_r_used());
  // Bit-identical floating-point aggregates, not just statistically close.
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_jobs_in_system, b.mean_jobs_in_system);
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.metrics.mean_cost(), b.metrics.mean_cost());
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(OpenSystemDeterminism, DifferentSeedDifferentStream) {
  auto config = base_config(0.3, 4, 4);
  const auto a = sim::run_open_system(config);
  config.seed = 8;
  const auto b = sim::run_open_system(config);
  EXPECT_NE(a.end_time, b.end_time);
}

// --- auto strategy selection ------------------------------------------------

TEST(OpenSystemAuto, PlansOnlyChronosStrategies) {
  auto config = base_config(0.2, 4, 4);
  config.auto_strategy = true;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.admitted, 0u);
  // optimize_all picks among Clone / S-Restart / S-Resume; baselines can
  // only appear through admission degradation.
  using strategies::PolicyKind;
  EXPECT_EQ(result.mix[PolicyKind::kHadoopS], 0u);
  EXPECT_EQ(result.mix[PolicyKind::kMantri], 0u);
  EXPECT_EQ(result.mix[PolicyKind::kHadoopNS], result.degraded);
  const std::uint64_t chronos = result.mix[PolicyKind::kClone] +
                                result.mix[PolicyKind::kSRestart] +
                                result.mix[PolicyKind::kSResume];
  EXPECT_EQ(chronos + result.degraded, result.admitted);
}

// --- plan cache through the engine ------------------------------------------

void expect_same_run(const OpenSystemResult& a, const OpenSystemResult& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.metrics.jobs(), b.metrics.jobs());
  EXPECT_EQ(a.metrics.total_r_used(), b.metrics.total_r_used());
  for (const auto kind :
       {strategies::PolicyKind::kHadoopNS, strategies::PolicyKind::kClone,
        strategies::PolicyKind::kSRestart, strategies::PolicyKind::kSResume}) {
    EXPECT_EQ(a.mix[kind], b.mix[kind]);
  }
  // Bit-identical floating-point aggregates, not just statistically close.
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_jobs_in_system, b.mean_jobs_in_system);
  EXPECT_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.metrics.pocd(), b.metrics.pocd());
  EXPECT_EQ(a.metrics.mean_cost(), b.metrics.mean_cost());
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(OpenSystemPlanCache, FinestGridHitsAreBitIdenticalToOff) {
  // base_config's jobs all share one shape (8 tasks, fixed t_min and beta,
  // deadline factor lo = hi) and the spot price holds for an hour, so auto
  // planning sees the same inputs bit for bit within each hour. At the
  // finest grid those repeats hit the memo, and replaying their plans must
  // not move a single bit of any simulation output.
  auto off = base_config(0.3, 4, 4);
  off.auto_strategy = true;
  auto cached = off;
  cached.plan_cache.grid = serve::kMinQuantizeGrid;
  const auto a = sim::run_open_system(off);
  const auto b = sim::run_open_system(cached);
  expect_same_run(a, b);
  EXPECT_EQ(a.plan_cache_hits, 0u);
  EXPECT_EQ(a.plan_cache_misses, 0u);
  EXPECT_GT(b.plan_cache_hits, 0u);
  // Every arrival is planned (the plan feeds the admission decision).
  EXPECT_EQ(b.plan_cache_hits + b.plan_cache_misses, b.arrivals);
}

TEST(OpenSystemPlanCache, QuantizedModeHitsAndConserves) {
  // Quantized keys trade bit-identity for hit rate: with a coarse grid over
  // a continuously-sampled workload the cache must actually hit, and the
  // run must still satisfy the conservation law.
  auto config = base_config(0.3, 4, 4);
  config.auto_strategy = true;
  config.plan_cache.grid = 0.5;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.plan_cache_hits, 0u);
  EXPECT_EQ(result.plan_cache_hits + result.plan_cache_misses,
            result.arrivals);
  EXPECT_EQ(result.admitted, result.completed);
}

// --- arrival pricing --------------------------------------------------------

TEST(OpenSystemPricing, ArrivalsArePricedAtTheirArrivalInstant) {
  // One Poisson arrival landing past the first price step of a fast spot
  // clock: its cost must be machine_time * price_at(arrival), not the
  // price at time zero (the stale clock the engine must never use). The
  // engine draws its arrival gaps from the first split of Rng(seed), so the
  // arrival instant is recomputed here from that stream.
  auto config = base_config(1.0 / 2000.0, 4, 4);
  config.prices.step_seconds = 100.0;
  config.prices.volatility = 0.5;
  config.duration = 1000.0;
  config.warm_up = 0.0;
  config.seed = 30;  // one arrival in the horizon, at t = 630.5 s
  Rng master(config.seed);
  Rng stream = master.split();
  const double arrival = ExponentialSampler(config.arrivals.rate)(stream);
  ASSERT_GE(arrival, config.prices.step_seconds);
  ASSERT_LE(arrival, config.duration);
  const trace::SpotPriceModel prices(config.prices);
  ASSERT_NE(prices.price_at(arrival), prices.price_at(0.0));
  const auto result = sim::run_open_system(config);
  ASSERT_EQ(result.arrivals, 1u);
  ASSERT_EQ(result.metrics.jobs(), 1u);
  EXPECT_GT(result.metrics.mean_machine_time(), 0.0);
  EXPECT_DOUBLE_EQ(
      result.metrics.mean_cost(),
      result.metrics.mean_machine_time() * prices.price_at(arrival));
  EXPECT_NE(result.metrics.mean_cost(),
            result.metrics.mean_machine_time() * prices.price_at(0.0));
}

// --- arrival process --------------------------------------------------------

TEST(OpenSystemArrivals, PoissonCountWithinFourSigma) {
  // Arrivals at 1/s over 2500 s: N ~ Poisson(2500), sigma 50. The engine
  // schedules every arrival up to the horizon, admitted or not.
  auto config = base_config(1.0, 16, 8);
  config.duration = 2500.0;
  config.warm_up = 1250.0;
  const auto result = sim::run_open_system(config);
  EXPECT_GT(result.arrivals, 2300u);
  EXPECT_LT(result.arrivals, 2700u);
  // The second half of the horizon holds about half of them: N ~
  // Poisson(1250), sigma 35.
  EXPECT_GT(result.window_arrivals, 1110u);
  EXPECT_LT(result.window_arrivals, 1390u);
}

// --- config validation ------------------------------------------------------

TEST(OpenSystemConfigValidation, RejectsBadArrivalRate) {
  auto config = base_config(1.0, 2, 4);
  config.validate();
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    config.arrivals.rate = rate;
    EXPECT_THROW(config.validate(), PreconditionError) << rate;
    EXPECT_THROW(sim::run_open_system(config), PreconditionError) << rate;
  }
}

TEST(OpenSystemConfigValidation, RejectsBadWindows) {
  auto config = base_config(0.1, 2, 4);
  config.warm_up = config.duration;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.warm_up = 0.0;
  config.duration = 0.0;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.duration = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), PreconditionError);
}

// --- validation-hardening regressions (bugfix satellite) --------------------

TEST(ValidationHardening, WorkloadProfileRejectsDegenerateParameters) {
  trace::WorkloadProfile profile = trace::benchmark("Sort");
  profile.t_min = 0.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.beta = 1.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.t_min = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  profile.deadline = -1.0;
  EXPECT_THROW(profile.make_job(0, 4), PreconditionError);
  profile = trace::benchmark("Sort");
  EXPECT_NO_THROW(profile.make_job(0, 4));
}

TEST(ValidationHardening, ClusterRejectsNonFiniteNodeParameters) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto make = [](const sim::NodeConfig& node) {
    sim::Cluster cluster(sim::ClusterConfig::uniform(1, node));
  };
  EXPECT_THROW(make({.speed = 0.0}), PreconditionError);
  EXPECT_THROW(make({.speed = -1.0}), PreconditionError);
  EXPECT_THROW(make({.speed = inf}), PreconditionError);
  EXPECT_THROW(make({.speed = nan}), PreconditionError);
  EXPECT_THROW(make({.containers = 0}), PreconditionError);
  EXPECT_NO_THROW(make({.speed = 2.0}));
}

TEST(ValidationHardening, RunMetricsRetentionToggle) {
  sim::RunMetrics metrics;  // rows are opt-in: none by default
  sim::JobOutcome outcome;
  outcome.met_deadline = true;
  outcome.r_used = 2;
  metrics.record(outcome);
  outcome.met_deadline = false;
  outcome.r_used = 1;
  metrics.record(outcome);
  EXPECT_TRUE(metrics.outcomes().empty());
  EXPECT_EQ(metrics.jobs(), 2u);
  EXPECT_EQ(metrics.total_r_used(), 3);
  EXPECT_DOUBLE_EQ(metrics.pocd(), 0.5);
  // The toggle is a construction-time decision.
  EXPECT_THROW(metrics.set_retain_outcomes(true), PreconditionError);
}

}  // namespace
}  // namespace chronos
