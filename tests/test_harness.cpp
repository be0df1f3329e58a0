// Experiment harness: configuration factories and run_experiment edge
// cases not covered by the integration suite.
#include "trace/harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mapreduce/scheduler.h"
#include "sim/simulator.h"
#include "trace/planner.h"

namespace chronos::trace {
namespace {

using strategies::PolicyKind;

TEST(Harness, LargeScaleConfigHasNoContention) {
  const auto config = ExperimentConfig::large_scale(PolicyKind::kSResume);
  EXPECT_EQ(config.policy, PolicyKind::kSResume);
  int total = 0;
  for (const auto& node : config.cluster.nodes) {
    total += node.containers;
  }
  EXPECT_GE(total, 1000);  // generous capacity: trace jobs never queue
  EXPECT_EQ(config.scheduler.estimator, mapreduce::EstimatorKind::kChronos);
}

TEST(Harness, TestbedConfigMatchesSection7A) {
  const auto config = ExperimentConfig::testbed(PolicyKind::kClone, 5);
  EXPECT_EQ(config.cluster.nodes.size(), 40u);
  for (const auto& node : config.cluster.nodes) {
    EXPECT_EQ(node.containers, 8);
  }
  EXPECT_EQ(config.seed, 5u);
}

TEST(Harness, RejectsEmptyTrace) {
  const auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  EXPECT_THROW(run_experiment({}, config), PreconditionError);
}

TEST(Harness, SingleJobTrace) {
  TracedJob job;
  job.submit_time = 10.0;
  job.spec.job_id = 99;
  job.spec.stage(0).num_tasks = 5;
  job.spec.deadline = 200.0;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  config.scheduler.retain_outcomes = true;
  const auto result = run_experiment({job}, config);
  EXPECT_EQ(result.metrics.jobs(), 1u);
  EXPECT_EQ(result.metrics.outcomes().front().job_id, 99);
  EXPECT_EQ(result.policy_name, "Hadoop-NS");
}

TEST(Harness, ResultAccessorsMatchMetrics) {
  TraceConfig trace_config;
  trace_config.num_jobs = 20;
  trace_config.mean_tasks = 10.0;
  trace_config.max_tasks = 50;
  auto jobs = generate_trace(trace_config);
  PlannerConfig planner;
  const SpotPriceModel prices;
  plan_trace(jobs, PolicyKind::kClone, planner, prices);
  const auto result = run_experiment(
      jobs, ExperimentConfig::large_scale(PolicyKind::kClone, 3));
  EXPECT_EQ(result.pocd(), result.metrics.pocd());
  EXPECT_EQ(result.mean_cost(), result.metrics.mean_cost());
  EXPECT_EQ(result.utility(1e-4, 0.1),
            result.metrics.utility(1e-4, 0.1));
  EXPECT_GT(result.events_executed, 0u);
}

TEST(Harness, DifferentSeedsProduceDifferentRuns) {
  TracedJob job;
  job.submit_time = 0.0;
  job.spec.stage(0).num_tasks = 20;
  job.spec.deadline = 200.0;
  job.spec.stage(0).t_min = 30.0;
  job.spec.stage(0).beta = 1.5;
  const auto a = run_experiment(
      {job}, ExperimentConfig::large_scale(PolicyKind::kHadoopNS, 1));
  const auto b = run_experiment(
      {job}, ExperimentConfig::large_scale(PolicyKind::kHadoopNS, 2));
  EXPECT_NE(a.metrics.mean_machine_time(), b.metrics.mean_machine_time());
}


// --- closed-replay retirement --------------------------------------------------

/// What a replay leaves behind for comparison.
struct Replay {
  sim::RunMetrics metrics;
  std::uint64_t events_executed = 0;
  int live_jobs_left = 0;
  int live_jobs_max = 0;  ///< peak records held, sampled at each retirement
};

/// run_experiment by hand, either keeping every job record (as a Scheduler
/// does by default) or retiring each one on completion.
Replay replay(const std::vector<TracedJob>& jobs,
              const ExperimentConfig& config, bool retire) {
  sim::Simulator simulator;
  sim::Cluster cluster(config.cluster);
  auto policy = strategies::make_policy(config.policy, config.policy_options);
  mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                 config.scheduler, Rng(config.seed));
  Replay out;
  if (retire) {
    scheduler.retire_completed_jobs([&](int, const sim::JobOutcome&) {
      out.live_jobs_max = std::max(out.live_jobs_max, scheduler.live_jobs());
    });
  }
  for (const auto& job : jobs) {
    simulator.at(job.submit_time,
                 [&scheduler, &job] { scheduler.submit(job.spec); });
  }
  simulator.run();
  out.metrics = scheduler.metrics();
  out.events_executed = simulator.events_executed();
  out.live_jobs_left = scheduler.live_jobs();
  return out;
}

void expect_same_run(const sim::RunMetrics& a, std::uint64_t a_events,
                     const sim::RunMetrics& b, std::uint64_t b_events,
                     const std::string& label) {
  EXPECT_EQ(a_events, b_events) << label;
  EXPECT_EQ(a.pocd(), b.pocd()) << label;
  EXPECT_EQ(a.mean_cost(), b.mean_cost()) << label;
  EXPECT_EQ(a.mean_machine_time(), b.mean_machine_time()) << label;
  ASSERT_EQ(a.outcomes().size(), a.jobs()) << label << ": rows opted in";
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size()) << label;
  for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
    const auto& x = a.outcomes()[i];
    const auto& y = b.outcomes()[i];
    EXPECT_EQ(x.job_id, y.job_id) << label << " row " << i;
    EXPECT_EQ(x.met_deadline, y.met_deadline) << label << " row " << i;
    EXPECT_EQ(x.completion_time, y.completion_time) << label << " row " << i;
    EXPECT_EQ(x.deadline, y.deadline) << label << " row " << i;
    EXPECT_EQ(x.machine_time, y.machine_time) << label << " row " << i;
    EXPECT_EQ(x.cost, y.cost) << label << " row " << i;
    EXPECT_EQ(x.r_used, y.r_used) << label << " row " << i;
    EXPECT_EQ(x.attempts_launched, y.attempts_launched)
        << label << " row " << i;
    EXPECT_EQ(x.attempts_killed, y.attempts_killed) << label << " row " << i;
    EXPECT_EQ(x.attempts_failed, y.attempts_failed) << label << " row " << i;
  }
}

TEST(ClosedReplayRetirement, ChangesNoResult) {
  // Twelve overlapping jobs on 32 containers, so attempts queue and slots
  // are reused; every third job is a 3-stage fan-in DAG (0 -> 1, {0, 1} ->
  // 2). Each policy runs without failures and with crash injection under
  // both retry modes.
  TraceConfig trace_config;
  trace_config.num_jobs = 12;
  trace_config.duration_hours = 0.25;
  trace_config.mean_tasks = 8.0;
  trace_config.max_tasks = 24;
  trace_config.seed = 17;
  auto trace = generate_trace(trace_config);
  for (std::size_t j = 0; j < trace.size(); j += 3) {
    mapreduce::StageSpec reduce = trace[j].spec.stage(0);
    reduce.num_tasks = 3;
    reduce.deps = {0};
    mapreduce::StageSpec merge = reduce;
    merge.num_tasks = 2;
    merge.deps = {0, 1};
    trace[j].spec.stages.push_back(reduce);
    trace[j].spec.stages.push_back(merge);
  }
  sim::NodeConfig node;
  node.containers = 16;

  struct Failures {
    double rate;
    bool lose_partial_output;
  };
  for (const PolicyKind kind :
       {PolicyKind::kHadoopNS, PolicyKind::kHadoopS, PolicyKind::kMantri,
        PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    auto jobs = trace;
    plan_trace(jobs, kind, PlannerConfig{}, SpotPriceModel{});
    for (const Failures failures :
         {Failures{0.0, true}, Failures{0.01, true}, Failures{0.01, false}}) {
      auto config = ExperimentConfig::large_scale(kind, 3);
      config.cluster = sim::ClusterConfig::uniform(2, node);
      config.scheduler.retain_outcomes = true;  // compared row by row
      config.scheduler.failures.rate = failures.rate;
      config.scheduler.failures.lose_partial_output =
          failures.lose_partial_output;
      const std::string label =
          to_string(kind) + " rate=" + std::to_string(failures.rate) +
          " lose=" + std::to_string(failures.lose_partial_output);

      const Replay kept = replay(jobs, config, false);
      const Replay retired = replay(jobs, config, true);
      const ExperimentResult result = run_experiment(jobs, config);

      // Not vacuous: the kept replay holds every record, the retiring one
      // none at the end and never all of them at once.
      EXPECT_EQ(kept.live_jobs_left, static_cast<int>(jobs.size()))
          << label;
      EXPECT_EQ(retired.live_jobs_left, 0) << label;
      EXPECT_GT(retired.live_jobs_max, 0) << label;
      EXPECT_LT(retired.live_jobs_max, static_cast<int>(jobs.size()))
          << label;
      if (failures.rate > 0.0) {
        EXPECT_GT(kept.metrics.attempts_failed(), 0u) << label;
      }

      expect_same_run(retired.metrics, retired.events_executed, kept.metrics,
                      kept.events_executed, label + " (retiring replay)");
      expect_same_run(result.metrics, result.events_executed, kept.metrics,
                      kept.events_executed, label + " (run_experiment)");
    }
  }
}

// --- closed-replay submission order -----------------------------------------

/// One-stage job whose policy timers fire at submit + 10 (tau_est) and
/// submit + 20 (tau_kill).
TracedJob timed_job(int id, double submit_time) {
  TracedJob job;
  job.submit_time = submit_time;
  job.spec.job_id = id;
  job.spec.deadline = 40.0;
  auto& stage = job.spec.stage(0);
  stage.num_tasks = 3;
  stage.t_min = 8.0;
  stage.beta = 1.5;
  stage.tau_est = 10.0;
  stage.tau_kill = 20.0;
  stage.r = 2;
  return job;
}

TEST(ClosedReplayOrder, OnePendingSubmissionMatchesEagerReplay) {
  // run_experiment keeps one submission pending; the eager replay schedules
  // every submission up front, in trace order, before any other event.
  // Both must submit in (submit_time, trace index) order and ahead of every
  // other event at the same instant. Six containers are too few for the
  // jobs' copies, so placement, queueing and RNG draws all depend on that
  // order.
  struct Case {
    std::string name;
    std::vector<TracedJob> jobs;
  };
  const std::vector<Case> cases = {
      {"unsorted", {timed_job(3, 30.0), timed_job(1, 0.0), timed_job(4, 7.0),
                    timed_job(2, 5.0)}},
      {"duplicate submit times",
       {timed_job(1, 5.0), timed_job(2, 5.0), timed_job(3, 0.0),
        timed_job(4, 5.0), timed_job(5, 0.0)}},
      // A's tau_est timer and C's submission share t = 10; A's tau_kill and
      // D's submission share t = 20.
      {"timer ties a submission",
       {timed_job(1, 0.0), timed_job(2, 5.0), timed_job(3, 10.0),
        timed_job(4, 20.0)}},
  };
  sim::NodeConfig node;
  node.containers = 3;
  for (const PolicyKind kind :
       {PolicyKind::kHadoopNS, PolicyKind::kMantri, PolicyKind::kClone,
        PolicyKind::kSRestart, PolicyKind::kSResume}) {
    auto config = ExperimentConfig::large_scale(kind, 5);
    config.cluster = sim::ClusterConfig::uniform(2, node);
    config.scheduler.retain_outcomes = true;  // compared row by row
    for (const Case& c : cases) {
      const std::string label = to_string(kind) + " " + c.name;
      const Replay eager = replay(c.jobs, config, false);
      const ExperimentResult result = run_experiment(c.jobs, config);
      ASSERT_EQ(result.metrics.jobs(), c.jobs.size()) << label;
      expect_same_run(result.metrics, result.events_executed, eager.metrics,
                      eager.events_executed, label);
    }
  }
}

TEST(ClosedReplayOrder, RejectsNegativeOrNanSubmitTimes) {
  const auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS);
  for (const double bad : {-1.0, std::nan("")}) {
    EXPECT_THROW(run_experiment({timed_job(1, 0.0), timed_job(2, bad)},
                                config),
                 PreconditionError);
  }
}

}  // namespace
}  // namespace chronos::trace
