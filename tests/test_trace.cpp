// Workload profiles, spot-price model, and the synthetic Google trace.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "trace/google_trace.h"
#include "trace/spot_price.h"
#include "trace/workload.h"

namespace chronos::trace {
namespace {

TEST(Workload, SuiteHasFourBenchmarks) {
  const auto& suite = benchmark_suite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "Sort");
  EXPECT_EQ(suite[1].name, "SecondarySort");
  EXPECT_EQ(suite[2].name, "TeraSort");
  EXPECT_EQ(suite[3].name, "WordCount");
}

TEST(Workload, DeadlinesMatchPaper) {
  EXPECT_EQ(benchmark("Sort").deadline, 100.0);
  EXPECT_EQ(benchmark("TeraSort").deadline, 100.0);
  EXPECT_EQ(benchmark("SecondarySort").deadline, 150.0);
  EXPECT_EQ(benchmark("WordCount").deadline, 150.0);
}

TEST(Workload, HeavyTailRegime) {
  // §VII-A: testbed execution times are Pareto with beta < 2.
  for (const auto& profile : benchmark_suite()) {
    EXPECT_GT(profile.beta, 1.0) << profile.name;
    EXPECT_LT(profile.beta, 2.0) << profile.name;
    EXPECT_GT(profile.deadline, profile.t_min) << profile.name;
  }
}

TEST(Workload, MakeJobCopiesProfileFields) {
  const auto spec = benchmark("Sort").make_job(7, 10);
  EXPECT_EQ(spec.job_id, 7);
  EXPECT_EQ(spec.stage(0).num_tasks, 10);
  EXPECT_EQ(spec.deadline, 100.0);
  EXPECT_EQ(spec.stage(0).t_min, benchmark("Sort").t_min);
  EXPECT_NO_THROW(spec.validate());
}

TEST(Workload, UnknownBenchmarkThrows) {
  EXPECT_THROW(benchmark("Grep"), PreconditionError);
}

TEST(SpotPrice, DeterministicForSeed) {
  const SpotPriceModel a;
  const SpotPriceModel b;
  for (double t = 0.0; t < 30.0 * 3600.0; t += 7000.0) {
    EXPECT_EQ(a.price_at(t), b.price_at(t));
  }
}

TEST(SpotPrice, AlwaysPositive) {
  SpotPriceConfig config;
  config.volatility = 0.5;  // violent market
  const SpotPriceModel model(config);
  for (double t = 0.0; t < config.horizon_seconds; t += 1800.0) {
    EXPECT_GT(model.price_at(t), 0.0);
  }
}

TEST(SpotPrice, MeanNearBase) {
  // Mean of the generated path: one price per step of the grid.
  const SpotPriceConfig config;
  const SpotPriceModel model(config);
  double sum = 0.0;
  int steps = 0;
  for (double t = 0.0; t < config.horizon_seconds; t += config.step_seconds) {
    sum += model.price_at(t);
    ++steps;
  }
  EXPECT_NEAR(sum / steps, config.base_price, 0.2 * config.base_price);
}

TEST(SpotPrice, ClampsBeyondHorizon) {
  const SpotPriceModel model;
  EXPECT_EQ(model.price_at(1e12), model.price_at(1e12 + 1.0));
  EXPECT_THROW(model.price_at(-1.0), PreconditionError);
}

TEST(SpotPrice, ConstantWhenVolatilityZero) {
  SpotPriceConfig config;
  config.volatility = 0.0;
  const SpotPriceModel model(config);
  EXPECT_NEAR(model.price_at(0.0), config.base_price, 1e-12);
  EXPECT_NEAR(model.price_at(3600.0 * 20.0), config.base_price, 1e-12);
}

TEST(GoogleTrace, DeterministicForSeed) {
  TraceConfig config;
  config.num_jobs = 50;
  const auto a = generate_trace(config);
  const auto b = generate_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].submit_time, b[i].submit_time);
    EXPECT_EQ(a[i].spec.stage(0).num_tasks, b[i].spec.stage(0).num_tasks);
    EXPECT_EQ(a[i].spec.stage(0).t_min, b[i].spec.stage(0).t_min);
  }
}

TEST(GoogleTrace, SortedBysubmitTimeWithSequentialIds) {
  TraceConfig config;
  config.num_jobs = 200;
  const auto jobs = generate_trace(config);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].submit_time, jobs[i].submit_time);
    EXPECT_EQ(jobs[i].spec.job_id, static_cast<int>(i));
  }
}

TEST(GoogleTrace, ParametersWithinConfiguredRanges) {
  TraceConfig config;
  config.num_jobs = 500;
  const auto jobs = generate_trace(config);
  const double horizon = config.duration_hours * 3600.0;
  for (const auto& job : jobs) {
    EXPECT_GE(job.submit_time, 0.0);
    EXPECT_LT(job.submit_time, horizon);
    EXPECT_GE(job.spec.stage(0).num_tasks, 1);
    EXPECT_LE(job.spec.stage(0).num_tasks, config.max_tasks);
    EXPECT_GE(job.spec.stage(0).t_min, config.t_min_lo * (1.0 - 1e-9));
    EXPECT_LE(job.spec.stage(0).t_min, config.t_min_hi * (1.0 + 1e-9));
    EXPECT_GE(job.spec.stage(0).beta, config.beta_lo);
    EXPECT_LE(job.spec.stage(0).beta, config.beta_hi);
    // Deadline = 2 x mean execution time by default.
    const double mean = job.spec.stage(0).t_min * job.spec.stage(0).beta / (job.spec.stage(0).beta - 1.0);
    EXPECT_NEAR(job.spec.deadline, 2.0 * mean, 1e-6 * mean);
    EXPECT_NO_THROW(job.spec.validate());
  }
}

TEST(GoogleTrace, MeanTaskCountApproximatelyConfigured) {
  TraceConfig config;
  config.num_jobs = 2700;
  const auto jobs = generate_trace(config);
  const double mean = static_cast<double>(total_tasks(jobs)) /
                      static_cast<double>(jobs.size());
  // Lognormal with clamping biases slightly low; allow 25%.
  EXPECT_NEAR(mean, config.mean_tasks, 0.25 * config.mean_tasks);
}

TEST(GoogleTrace, TaskCountsAreHeavyTailed) {
  TraceConfig config;
  config.num_jobs = 2000;
  const auto jobs = generate_trace(config);
  int small = 0;
  int large = 0;
  for (const auto& job : jobs) {
    small += job.spec.stage(0).num_tasks < 100 ? 1 : 0;
    large += job.spec.stage(0).num_tasks > 1000 ? 1 : 0;
  }
  EXPECT_GT(small, 0);
  EXPECT_GT(large, 0);
}

TEST(GoogleTrace, HugeMeanTaskCountClampsToMaxTasks) {
  // Draws around 1e12 lie past INT_MAX; they must clamp to max_tasks, not
  // wrap when narrowed to int.
  TraceConfig config;
  config.num_jobs = 20;
  config.mean_tasks = 1e12;
  config.max_tasks = 50;
  config.seed = 3;
  for (const auto& job : generate_trace(config)) {
    EXPECT_EQ(job.spec.stage(0).num_tasks, 50) << job.spec.job_id;
  }
}

TEST(GoogleTrace, RejectsInvalidConfig) {
  TraceConfig config;
  config.num_jobs = 0;
  EXPECT_THROW(generate_trace(config), PreconditionError);
  config = TraceConfig{};
  config.beta_lo = 1.0;  // infinite mean breaks deadline scaling
  EXPECT_THROW(generate_trace(config), PreconditionError);
  config = TraceConfig{};
  config.deadline_factor_lo = 0.9;
  EXPECT_THROW(generate_trace(config), PreconditionError);
  config = TraceConfig{};
  config.max_tasks = 0;
  EXPECT_THROW(generate_trace(config), PreconditionError);
}

TEST(GoogleTrace, DifferentSeedsDiffer) {
  TraceConfig a;
  a.num_jobs = 50;
  TraceConfig b = a;
  b.seed = a.seed + 1;
  const auto ja = generate_trace(a);
  const auto jb = generate_trace(b);
  int differing = 0;
  for (std::size_t i = 0; i < ja.size(); ++i) {
    differing += ja[i].spec.stage(0).num_tasks != jb[i].spec.stage(0).num_tasks ? 1 : 0;
  }
  EXPECT_GT(differing, 10);
}

}  // namespace
}  // namespace chronos::trace
