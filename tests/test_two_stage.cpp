// Staged jobs: shuffle barriers asserted from the event stream, DAG
// fan-in, per-stage durations and speculation, and the critical-path
// staged planner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "mapreduce/scheduler.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "strategies/policies.h"
#include "trace/planner.h"

namespace chronos {
namespace {

using mapreduce::AttemptState;
using mapreduce::JobSpec;
using mapreduce::Scheduler;
using mapreduce::SchedulerConfig;
using mapreduce::StageSpec;

JobSpec two_stage_job(long long r = 1) {
  JobSpec spec;
  spec.deadline = 400.0;
  spec.stages = {
      StageSpec{8, 30.0, 1.4, 40.0, 80.0, r, {}},
      StageSpec{4, 50.0, 1.6, 20.0, 45.0, 2, {}},
  };
  return spec;
}

/// Three-stage barrier chain with distinct per-stage shapes.
JobSpec chain_job() {
  JobSpec spec;
  spec.deadline = 600.0;
  spec.stages = {
      StageSpec{8, 30.0, 1.4, 40.0, 80.0, 1, {}},
      StageSpec{4, 50.0, 1.6, 20.0, 45.0, 1, {}},
      StageSpec{2, 20.0, 1.5, 15.0, 35.0, 1, {}},
  };
  return spec;
}

/// Diamond DAG: 1 -> {2, 3} -> 4 where stage 3 is the heavy branch.
JobSpec diamond_job() {
  JobSpec spec;
  spec.deadline = 800.0;
  spec.stages = {
      StageSpec{6, 25.0, 1.5, 30.0, 60.0, 1, {}},
      StageSpec{4, 30.0, 1.6, 20.0, 45.0, 1, {0}},
      StageSpec{8, 60.0, 1.3, 40.0, 90.0, 1, {0}},
      StageSpec{2, 20.0, 1.5, 15.0, 35.0, 1, {1, 2}},
  };
  return spec;
}

struct StageRun {
  sim::Simulator simulator;
  sim::Cluster cluster;
  std::unique_ptr<mapreduce::SpeculationPolicy> policy;
  std::unique_ptr<Scheduler> scheduler;

  StageRun(strategies::PolicyKind kind, const JobSpec& spec,
           std::uint64_t seed = 21)
      : cluster(sim::ClusterConfig::uniform(8, [] {
          sim::NodeConfig node;
          node.containers = 32;
          return node;
        }())) {
    policy = strategies::make_policy(kind);
    scheduler = std::make_unique<Scheduler>(simulator, cluster, *policy,
                                            SchedulerConfig{}, Rng(seed));
    scheduler->submit(spec);
    simulator.run();
  }

  const mapreduce::JobRecord& job() const { return scheduler->job(0); }
};

/// Absolute time the last task of stage `s` completed.
double stage_finish_abs(const mapreduce::JobRecord& job, int s) {
  double last = 0.0;
  const int first = job.spec.first_task(s);
  for (int t = first; t < first + job.spec.stage(s).num_tasks; ++t) {
    last = std::max(last,
                    job.tasks[static_cast<std::size_t>(t)].completion_time);
  }
  return job.submit_time + last;
}

TEST(StagedJobs, ValidateRejectsBadStageParams) {
  JobSpec spec = two_stage_job();
  spec.stage(1).num_tasks = -1;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec = two_stage_job();
  spec.stage(1).tau_est = 10.0;
  spec.stage(1).tau_kill = 5.0;
  EXPECT_THROW(spec.validate(), PreconditionError);
  // Deps must reference strictly earlier stages.
  spec = two_stage_job();
  spec.stage(1).deps = {1};
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec = two_stage_job();
  spec.stage(0).deps = {-1};
  EXPECT_THROW(spec.validate(), PreconditionError);
}

TEST(StagedJobs, ReduceStartsOnlyAfterAllMapsComplete) {
  StageRun run(strategies::PolicyKind::kHadoopNS, two_stage_job());
  const auto& job = run.job();
  EXPECT_TRUE(job.done);
  EXPECT_TRUE(job.stage_states[1].started);
  EXPECT_NEAR(job.stage_states[1].start_time, stage_finish_abs(job, 0),
              1e-9);
  // Every reduce attempt was requested at or after the barrier.
  for (const auto& attempt : job.attempts) {
    if (job.stage_of_task(attempt.task_index) == 1) {
      EXPECT_GE(attempt.request_time,
                job.stage_states[1].start_time - 1e-9);
    }
  }
}

TEST(StagedJobs, ShuffleBarrierHoldsInEventStream) {
  // The barrier law, asserted from the recorded event stream across a
  // 3-stage chain and several seeds: no attempt of stage s is *requested*
  // before the last task of every predecessor stage has completed.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    StageRun run(strategies::PolicyKind::kSResume, chain_job(), seed);
    const auto& job = run.job();
    ASSERT_TRUE(job.done);
    for (int s = 0; s < job.spec.num_stages(); ++s) {
      double barrier = job.submit_time;
      for (const int dep : job.spec.resolved_deps(s)) {
        barrier = std::max(barrier, stage_finish_abs(job, dep));
      }
      EXPECT_NEAR(job.stage_states[static_cast<std::size_t>(s)].start_time,
                  barrier, 1e-9)
          << "stage " << s << " seed " << seed;
      for (const auto& attempt : job.attempts) {
        if (job.stage_of_task(attempt.task_index) == s) {
          EXPECT_GE(attempt.request_time, barrier - 1e-9)
              << "stage " << s << " seed " << seed;
        }
      }
    }
  }
}

TEST(StagedJobs, FanInWaitsForEveryPredecessor) {
  StageRun run(strategies::PolicyKind::kHadoopNS, diamond_job(), 13);
  const auto& job = run.job();
  ASSERT_TRUE(job.done);
  // Both middle branches launch at stage 0's barrier, not chained.
  const double root_done = stage_finish_abs(job, 0);
  EXPECT_NEAR(job.stage_states[1].start_time, root_done, 1e-9);
  EXPECT_NEAR(job.stage_states[2].start_time, root_done, 1e-9);
  // The sink waits for the LAST of its two predecessors.
  const double fan_in =
      std::max(stage_finish_abs(job, 1), stage_finish_abs(job, 2));
  EXPECT_NEAR(job.stage_states[3].start_time, fan_in, 1e-9);
  EXPECT_EQ(job.tasks_completed, job.spec.total_tasks());
}

TEST(StagedJobs, CompletionRequiresEveryStage) {
  StageRun run(strategies::PolicyKind::kHadoopNS, two_stage_job());
  const auto& job = run.job();
  EXPECT_EQ(job.tasks_completed, 12);
  EXPECT_NEAR(job.submit_time + job.completion_time,
              stage_finish_abs(job, 1), 1e-9);
}

TEST(StagedJobs, StageDurationsUseStageParameters) {
  // Reduce t_min = 50: every reduce attempt runs at least 50 s.
  StageRun run(strategies::PolicyKind::kHadoopNS, two_stage_job());
  const auto& job = run.job();
  for (const auto& attempt : job.attempts) {
    if (job.stage_of_task(attempt.task_index) == 1 &&
        attempt.state == AttemptState::kFinished) {
      EXPECT_GE(attempt.end_time - attempt.launch_time, 50.0 - 1e-9);
    }
  }
}

TEST(StagedJobs, CloneReplicatesPerStagePlan) {
  StageRun run(strategies::PolicyKind::kClone, two_stage_job(2));
  const auto& job = run.job();
  // Map: 8 tasks x (r=2 + 1); reduce: 4 tasks x (r=2 + 1). Clone reads
  // each stage's own r.
  EXPECT_EQ(job.attempts_launched, 8 * 3 + 4 * 3);
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    int finished = 0;
    for (const auto& attempt : job.attempts) {
      finished += attempt.task_index == t &&
                          attempt.state == AttemptState::kFinished
                      ? 1
                      : 0;
    }
    EXPECT_EQ(finished, 1) << "task " << t;
  }
}

TEST(StagedJobs, SResumeSpeculatesReduceStragglers) {
  // Give the reduce stage a tight detection point so stragglers appear.
  auto spec = two_stage_job(1);
  spec.deadline = 250.0;
  int reduce_speculations = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    StageRun run(strategies::PolicyKind::kSResume, spec, seed);
    const auto& job = run.job();
    EXPECT_TRUE(job.done);
    for (int t = job.spec.first_task(1); t < job.spec.total_tasks(); ++t) {
      reduce_speculations +=
          job.tasks[static_cast<std::size_t>(t)].extra_attempts_launched;
    }
  }
  EXPECT_GT(reduce_speculations, 0);
}

TEST(StagedJobs, MapOnlyJobsUnaffected) {
  JobSpec spec = two_stage_job();
  spec.stages.resize(1);
  StageRun run(strategies::PolicyKind::kHadoopNS, spec);
  EXPECT_EQ(run.job().spec.num_stages(), 1);
  EXPECT_EQ(run.job().tasks_completed, 8);
}

TEST(StagedPlanner, MakespanFormulaMatchesSampledMaxima) {
  Rng rng(5);
  const int n = 50;
  const double t_min = 30.0;
  const double beta = 1.6;
  double sum = 0.0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    double worst = 0.0;
    for (int t = 0; t < n; ++t) {
      worst = std::max(worst, rng.pareto(t_min, beta));
    }
    sum += worst;
  }
  const double expected = trace::expected_stage_makespan(n, t_min, beta);
  EXPECT_NEAR(sum / trials, expected, 0.05 * expected);
}

TEST(StagedPlanner, MakespanIsBitIdenticalToLgammaFormula) {
  // The reentrant lgamma_r must not move a bit of the planner's deadline
  // split relative to the std::lgamma formula it replaced.
  for (const int n : {1, 2, 7, 50, 370, 4096}) {
    for (const double beta : {1.05, 1.3, 1.5, 1.6, 2.0, 3.7, 10.0}) {
      const double a = 1.0 - 1.0 / beta;
      const double reference =
          30.0 * std::exp(std::lgamma(n + 1.0) + std::lgamma(a) -
                          std::lgamma(n + a));
      EXPECT_EQ(trace::expected_stage_makespan(n, 30.0, beta), reference)
          << "n " << n << " beta " << beta;
    }
  }
}

TEST(StagedPlanner, MakespanGrowsWithTasksAndTail) {
  EXPECT_GT(trace::expected_stage_makespan(100, 30.0, 1.5),
            trace::expected_stage_makespan(10, 30.0, 1.5));
  EXPECT_GT(trace::expected_stage_makespan(10, 30.0, 1.2),
            trace::expected_stage_makespan(10, 30.0, 1.8));
  EXPECT_THROW(trace::expected_stage_makespan(0, 30.0, 1.5),
               PreconditionError);
  EXPECT_THROW(trace::expected_stage_makespan(10, 30.0, 1.0),
               PreconditionError);
}

TEST(StagedPlanner, SplitsDeadlineAndFillsEveryStage) {
  trace::TracedJob job;
  job.submit_time = 100.0;
  job.spec = two_stage_job();
  job.spec.stage(1).r = -1;  // let the planner decide
  job.spec.deadline = 600.0;
  trace::PlannerConfig config;
  const trace::SpotPriceModel prices;
  const auto plan = trace::plan_staged_job(
      job, strategies::PolicyKind::kSResume, config, prices);
  ASSERT_EQ(plan.stage_deadlines.size(), 2u);
  ASSERT_EQ(plan.stages.size(), 2u);
  // A barrier chain puts every stage on the critical path: the per-stage
  // shares partition the job deadline.
  EXPECT_NEAR(plan.stage_deadlines[0] + plan.stage_deadlines[1], 600.0, 1e-9);
  EXPECT_GT(plan.stage_deadlines[0], 0.0);
  EXPECT_GT(plan.stage_deadlines[1], 0.0);
  for (int s = 0; s < 2; ++s) {
    EXPECT_TRUE(plan.stages[static_cast<std::size_t>(s)].feasible);
    EXPECT_EQ(job.spec.stage(s).r,
              plan.stages[static_cast<std::size_t>(s)].r_opt);
    EXPECT_GE(job.spec.stage(s).tau_est, 0.0);
    EXPECT_GT(job.spec.stage(s).tau_kill, job.spec.stage(s).tau_est);
  }
  EXPECT_NO_THROW(job.spec.validate());
}

TEST(StagedPlanner, CriticalPathSplitOnFanIn) {
  // Diamond DAG: the critical path runs through the heavy branch (stage 2);
  // the light branch (stage 1) sits off-path but still gets its
  // span-proportional share.
  const JobSpec spec = diamond_job();
  const auto split = trace::critical_path_split(spec);
  ASSERT_EQ(split.size(), 4u);
  std::vector<double> span;
  for (const auto& st : spec.stages) {
    span.push_back(
        trace::expected_stage_makespan(st.num_tasks, st.t_min, st.beta));
  }
  ASSERT_GT(span[2], span[1]);  // stage 2 is the heavy branch
  const double critical = span[0] + span[2] + span[3];
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_NEAR(split[s], spec.deadline * span[s] / critical, 1e-9);
  }
  // Shares along the critical path partition the whole deadline.
  EXPECT_NEAR(split[0] + split[2] + split[3], spec.deadline, 1e-9);
}

TEST(StagedPlanner, SingleStageUsesWholeDeadline) {
  trace::TracedJob job;
  job.submit_time = 0.0;
  job.spec = two_stage_job();
  job.spec.stages.resize(1);
  trace::PlannerConfig config;
  const trace::SpotPriceModel prices;
  const auto plan = trace::plan_staged_job(
      job, strategies::PolicyKind::kClone, config, prices);
  ASSERT_EQ(plan.stage_deadlines.size(), 1u);
  EXPECT_EQ(plan.stage_deadlines[0], job.spec.deadline);
  EXPECT_TRUE(plan.stages[0].feasible);
}

TEST(StagedPlanner, PlannedJobSimulatesEndToEnd) {
  trace::TracedJob job;
  job.submit_time = 0.0;
  job.spec = diamond_job();
  job.spec.deadline = 900.0;
  trace::PlannerConfig config;
  const trace::SpotPriceModel prices;
  trace::plan_staged_job(job, strategies::PolicyKind::kSResume, config,
                         prices);
  StageRun run(strategies::PolicyKind::kSResume, job.spec, 99);
  EXPECT_TRUE(run.job().done);
  EXPECT_EQ(run.scheduler->metrics().jobs(), 1u);
}

}  // namespace
}  // namespace chronos
