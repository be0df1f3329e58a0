// Planner: analytic-model mapping and per-job optimization at submission.
#include "trace/planner.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace chronos::trace {
namespace {

TracedJob sample_job() {
  TracedJob job;
  job.submit_time = 1000.0;
  job.spec.job_id = 3;
  job.spec.stage(0).num_tasks = 100;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  job.spec.deadline = 180.0;  // 2 x mean (mean = 90)
  return job;
}

TEST(Planner, ToJobParamsMapsFields) {
  PlannerConfig config;
  const auto params =
      to_job_params(sample_job().spec, config,
                    core::Strategy::kSpeculativeRestart);
  EXPECT_EQ(params.num_tasks, 100);
  EXPECT_EQ(params.deadline, 180.0);
  EXPECT_NEAR(params.tau_est, 0.3 * 30.0, 1e-12);
  EXPECT_NEAR(params.tau_kill, 0.8 * 30.0, 1e-12);
  EXPECT_GT(params.phi_est, 0.0);
  EXPECT_LT(params.phi_est, 1.0);
  EXPECT_NO_THROW(params.validate());
}

TEST(Planner, CloneUsesZeroTauEst) {
  PlannerConfig config;
  const auto params =
      to_job_params(sample_job().spec, config, core::Strategy::kClone);
  EXPECT_EQ(params.tau_est, 0.0);
  EXPECT_NEAR(params.tau_kill, 0.8 * 30.0, 1e-12);
}

TEST(Planner, EconomicsUsesBaselinePocdAsRmin) {
  PlannerConfig config;
  const auto spec = sample_job().spec;
  const auto econ = to_economics(spec, config, 0.4);
  core::JobParams baseline;
  baseline.num_tasks = spec.stage(0).num_tasks;
  baseline.deadline = spec.deadline;
  baseline.t_min = spec.stage(0).t_min;
  baseline.beta = spec.stage(0).beta;
  EXPECT_NEAR(econ.r_min, core::pocd_no_speculation(baseline), 1e-12);
  EXPECT_EQ(econ.price, 0.4);
}

TEST(Planner, EconomicsFixedRmin) {
  PlannerConfig config;
  config.r_min_from_baseline = false;
  config.r_min = 0.42;
  const auto econ = to_economics(sample_job().spec, config, 0.4);
  EXPECT_EQ(econ.r_min, 0.42);
}

TEST(Planner, AnalyticStrategyMapping) {
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kClone));
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kSRestart));
  EXPECT_TRUE(has_analytic_strategy(strategies::PolicyKind::kSResume));
  EXPECT_FALSE(has_analytic_strategy(strategies::PolicyKind::kHadoopNS));
  EXPECT_FALSE(has_analytic_strategy(strategies::PolicyKind::kMantri));
  EXPECT_EQ(analytic_strategy(strategies::PolicyKind::kClone),
            core::Strategy::kClone);
  EXPECT_THROW(analytic_strategy(strategies::PolicyKind::kHadoopS),
               PreconditionError);
}

TEST(Planner, PlanJobFillsChronosFields) {
  auto job = sample_job();
  PlannerConfig config;
  const SpotPriceModel prices;
  const auto result =
      plan_staged_job(job, strategies::PolicyKind::kSResume, config, prices)
          .stages.front();
  EXPECT_TRUE(result.feasible);
  EXPECT_GT(job.spec.price, 0.0);
  EXPECT_EQ(job.spec.price, prices.price_at(1000.0));
  EXPECT_EQ(job.spec.stage(0).r, result.r_opt);
  EXPECT_GT(job.spec.stage(0).r, 0);  // deadline-sensitive job wants speculation
  EXPECT_NEAR(job.spec.stage(0).tau_est, 9.0, 1e-12);
  EXPECT_NEAR(job.spec.stage(0).tau_kill, 24.0, 1e-12);
}

TEST(Planner, BaselinePoliciesGetPriceOnly) {
  auto job = sample_job();
  PlannerConfig config;
  const SpotPriceModel prices;
  const auto result =
      plan_staged_job(job, strategies::PolicyKind::kMantri, config, prices)
          .stages.front();
  EXPECT_EQ(job.spec.stage(0).r, 0);
  EXPECT_GT(job.spec.price, 0.0);
  EXPECT_EQ(result.r_opt, 0);
}

TEST(Planner, HigherThetaNeverIncreasesR) {
  const SpotPriceModel prices;
  for (const auto policy :
       {strategies::PolicyKind::kClone, strategies::PolicyKind::kSResume}) {
    long long prev_r = 1 << 20;
    for (const double theta : {1e-6, 1e-5, 1e-4, 1e-3}) {
      auto job = sample_job();
      PlannerConfig config;
      config.theta = theta;
      plan_staged_job(job, policy, config, prices);
      EXPECT_LE(job.spec.stage(0).r, prev_r) << "theta=" << theta;
      prev_r = job.spec.stage(0).r;
    }
  }
}

TEST(Planner, PlanTracePlansEveryJob) {
  TraceConfig trace_config;
  trace_config.num_jobs = 30;
  trace_config.mean_tasks = 50.0;
  auto jobs = generate_trace(trace_config);
  PlannerConfig config;
  const SpotPriceModel prices;
  plan_trace(jobs, strategies::PolicyKind::kSRestart, config, prices);
  for (const auto& job : jobs) {
    EXPECT_GT(job.spec.price, 0.0);
    EXPECT_GT(job.spec.stage(0).tau_kill, job.spec.stage(0).tau_est);
    EXPECT_NO_THROW(job.spec.validate());
  }
}

/// Plans sample_job() and expects the empty-kill-window rejection, whose
/// message must contain `needs`.
void expect_empty_window(strategies::PolicyKind policy, bool auto_strategy,
                         double tau_est_factor, double tau_kill_factor,
                         const std::string& needs) {
  auto job = sample_job();
  PlannerConfig config;
  config.tau_est_factor = tau_est_factor;
  config.tau_kill_factor = tau_kill_factor;
  StagedPlan plan;
  try {
    plan_into(job.spec, auto_strategy, policy, config, 0.4, plan);
    ADD_FAILURE() << "planned an empty kill window";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("empty kill window"), std::string::npos) << what;
    EXPECT_NE(what.find(needs), std::string::npos) << what;
  }
}

TEST(Planner, EmptyKillWindowIsRejectedAtPlanTime) {
  // With tau_kill <= tau_est an extra attempt costs nothing in the model,
  // so Algorithm 1 would plan max_r for every job.
  using strategies::PolicyKind;
  const std::string restart = "tau_kill_factor > tau_est_factor";
  expect_empty_window(PolicyKind::kSRestart, false, 0.5, 0.5, restart);
  expect_empty_window(PolicyKind::kSRestart, false, 0.5, 0.4, restart);
  expect_empty_window(PolicyKind::kSResume, false, 0.3, 0.3, restart);
  expect_empty_window(PolicyKind::kClone, false, 0.3, 0.0,
                      "tau_kill_factor > 0");
  // plan = auto weighs every strategy, so an empty S-Restart/S-Resume
  // window fails it even though Clone's window is open.
  expect_empty_window(PolicyKind::kHadoopNS, true, 0.5, 0.5, restart);

  // Clone has no tau_est: only its kill time must be positive. Baselines
  // never reach the model.
  auto job = sample_job();
  PlannerConfig config;
  config.tau_est_factor = 0.5;
  config.tau_kill_factor = 0.5;
  const SpotPriceModel prices;
  EXPECT_NO_THROW(
      plan_staged_job(job, strategies::PolicyKind::kClone, config, prices));
  EXPECT_NO_THROW(
      plan_staged_job(job, strategies::PolicyKind::kMantri, config, prices));
  config.tau_kill_factor = 0.55;
  EXPECT_NO_THROW(
      plan_staged_job(job, strategies::PolicyKind::kSRestart, config, prices));
}

}  // namespace
}  // namespace chronos::trace
