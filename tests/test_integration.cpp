// End-to-end integration: planned traces replayed through the discrete-event
// cluster under every strategy, checking the qualitative orderings the paper
// reports and global simulation invariants.
#include <gtest/gtest.h>

#include <map>

#include "trace/harness.h"
#include "trace/planner.h"
#include "trace/workload.h"

namespace chronos::trace {
namespace {

using strategies::PolicyKind;

std::vector<TracedJob> small_trace(std::uint64_t seed = 5) {
  TraceConfig config;
  config.num_jobs = 120;
  config.duration_hours = 2.0;
  config.mean_tasks = 25.0;
  config.max_tasks = 200;
  config.seed = seed;
  return generate_trace(config);
}

/// `rows` opts in to per-job outcome rows, for tests that read them.
ExperimentResult run_policy(PolicyKind policy, std::uint64_t seed = 5,
                            bool rows = false) {
  auto jobs = small_trace();
  PlannerConfig planner;
  const SpotPriceModel prices;
  plan_trace(jobs, policy, planner, prices);
  auto config = ExperimentConfig::large_scale(policy, seed);
  config.scheduler.retain_outcomes = rows;
  return run_experiment(jobs, config);
}

TEST(Integration, EveryPolicyCompletesTheTrace) {
  for (const PolicyKind policy :
       {PolicyKind::kHadoopNS, PolicyKind::kHadoopS, PolicyKind::kMantri,
        PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    const auto result = run_policy(policy);
    EXPECT_EQ(result.metrics.jobs(), 120u) << result.policy_name;
    EXPECT_GT(result.events_executed, 0u);
  }
}

TEST(Integration, DeterministicForSameSeed) {
  const auto a = run_policy(PolicyKind::kSResume, 9);
  const auto b = run_policy(PolicyKind::kSResume, 9);
  EXPECT_EQ(a.pocd(), b.pocd());
  EXPECT_EQ(a.mean_cost(), b.mean_cost());
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Integration, ChronosStrategiesBeatNoSpeculationOnPoCD) {
  const auto baseline = run_policy(PolicyKind::kHadoopNS);
  for (const PolicyKind policy :
       {PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    const auto result = run_policy(policy);
    EXPECT_GT(result.pocd(), baseline.pocd()) << result.policy_name;
  }
}

TEST(Integration, CloneCostsMoreThanResume) {
  // Clone replicates every task; S-Resume only replicates stragglers and
  // preserves work (Figure 3(b) ordering).
  const auto clone = run_policy(PolicyKind::kClone);
  const auto resume = run_policy(PolicyKind::kSResume);
  EXPECT_GT(clone.mean_cost(), resume.mean_cost());
}

TEST(Integration, ResumeCheaperThanRestart) {
  const auto restart = run_policy(PolicyKind::kSRestart);
  const auto resume = run_policy(PolicyKind::kSResume);
  EXPECT_LT(resume.mean_cost(), restart.mean_cost());
}

TEST(Integration, MachineTimeBoundedBelowByWork) {
  // Every job's machine time is at least num_tasks * t_min: each task needs
  // at least one attempt processing the whole split.
  auto jobs = small_trace();
  PlannerConfig planner;
  const SpotPriceModel prices;
  plan_trace(jobs, PolicyKind::kHadoopNS, planner, prices);
  auto config = ExperimentConfig::large_scale(PolicyKind::kHadoopNS, 5);
  config.scheduler.retain_outcomes = true;
  const auto result = run_experiment(jobs, config);
  ASSERT_EQ(result.metrics.outcomes().size(), jobs.size());
  std::map<int, double> min_work;
  for (const auto& job : jobs) {
    min_work[job.spec.job_id] = job.spec.stage(0).num_tasks * job.spec.stage(0).t_min;
  }
  for (const auto& outcome : result.metrics.outcomes()) {
    EXPECT_GE(outcome.machine_time, 0.99 * min_work[outcome.job_id]);
  }
}

TEST(Integration, TestbedConfigMatchesPaper) {
  const auto config = ExperimentConfig::testbed(PolicyKind::kClone);
  EXPECT_EQ(config.cluster.nodes.size(), 40u);
  EXPECT_EQ(config.cluster.nodes.front().containers, 8);
}

TEST(Integration, MeetingDeadlineConsistentWithCompletionTime) {
  const auto result = run_policy(PolicyKind::kSRestart, 5, true);
  ASSERT_EQ(result.metrics.outcomes().size(), result.metrics.jobs());
  for (const auto& outcome : result.metrics.outcomes()) {
    EXPECT_EQ(outcome.met_deadline,
              outcome.completion_time <= outcome.deadline);
  }
}

TEST(Integration, UtilityOrderingFavoursChronosStrategies) {
  // Net utility with the paper's theta: the three Chronos strategies must
  // beat Hadoop-S (Figure 2(c) shape). Use the measured Hadoop-NS PoCD as
  // R_min, offset slightly so every strategy's utility stays finite.
  const double r_min =
      std::max(0.0, run_policy(PolicyKind::kHadoopNS).pocd() - 0.05);
  const double theta = 1e-4;
  const auto hadoop_s = run_policy(PolicyKind::kHadoopS);
  for (const PolicyKind policy :
       {PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    const auto result = run_policy(policy);
    EXPECT_GT(result.utility(theta, r_min),
              hadoop_s.utility(theta, r_min))
        << result.policy_name;
  }
}

// --- §VI ablations ----------------------------------------------------------
// Each case asserts only directions that held at its seed and at five
// neighbouring seeds.

/// A trace with pronounced JVM start-up (~6 s), where the completion-time
/// estimators and the resume-offset anticipation differ measurably.
std::vector<TracedJob> jvm_heavy_trace(std::uint64_t seed) {
  TraceConfig config;
  config.num_jobs = 600;
  config.duration_hours = 20.0;
  config.mean_tasks = 60.0;
  config.max_tasks = 600;
  config.jvm_mean = 6.0;
  config.jvm_jitter = 3.0;
  config.seed = seed;
  return generate_trace(config);
}

TEST(Ablation, NaiveEstimatorLaunchesTwiceTheExtraAttempts) {
  // Hadoop's naive estimator charges JVM start-up as processing time, so it
  // overestimates completion and flags more stragglers than Eq. 30: about
  // 2.2-2.4x the extra attempts. Under S-Restart those attempts also cost
  // more. They do not lower PoCD (naive S-Restart reaches the higher one),
  // and under S-Resume the naive run is usually the cheaper one, so neither
  // is asserted.
  const auto base = jvm_heavy_trace(555);
  const SpotPriceModel prices;
  for (const PolicyKind policy :
       {PolicyKind::kSRestart, PolicyKind::kSResume}) {
    auto jobs = base;
    PlannerConfig planner;
    planner.theta = 1e-4;
    plan_trace(jobs, policy, planner, prices);
    const auto extra_attempts = [&](const ExperimentResult& result) {
      return result.metrics.attempts_launched() -
             static_cast<std::uint64_t>(total_tasks(jobs));
    };
    auto config = ExperimentConfig::large_scale(policy, 91);
    config.scheduler.estimator = mapreduce::EstimatorKind::kHadoopNaive;
    const auto naive = run_experiment(jobs, config);
    config.scheduler.estimator = mapreduce::EstimatorKind::kChronos;
    const auto chronos = run_experiment(jobs, config);
    EXPECT_GE(extra_attempts(naive), 2 * extra_attempts(chronos))
        << naive.policy_name;
    if (policy == PolicyKind::kSRestart) {
      EXPECT_GT(naive.mean_cost(), chronos.mean_cost());
    }
  }
}

TEST(Ablation, ResumeOffsetAnticipationSavesMachineTime) {
  // Without Eq. 31's anticipation, resumed S-Resume attempts reprocess the
  // bytes the original handles while their JVMs start: mean machine time
  // rises, by about 0.07%.
  auto jobs = jvm_heavy_trace(777);
  PlannerConfig planner;
  planner.theta = 1e-4;
  const SpotPriceModel prices;
  plan_trace(jobs, PolicyKind::kSResume, planner, prices);
  auto config = ExperimentConfig::large_scale(PolicyKind::kSResume, 92);
  const auto anticipated = run_experiment(jobs, config);
  config.scheduler.anticipate_resume_offset = false;
  const auto observed = run_experiment(jobs, config);
  EXPECT_GT(observed.metrics.mean_machine_time(),
            anticipated.metrics.mean_machine_time());
}

// --- multi-wave execution (the paper's future work) -------------------------

/// PoCD of 60 isolated Sort jobs of 40 tasks (D = 160 s, tau_est = 40 s,
/// tau_kill = 80 s) on 10 nodes sharing `containers`. The single-wave
/// analysis plans r; below (r + 1) x 40 containers the attempts queue.
double multiwave_pocd(PolicyKind policy, int containers) {
  const auto& profile = benchmark("Sort");
  const SpotPriceModel prices;
  PlannerConfig planner;
  planner.theta = 1e-4;
  std::vector<TracedJob> jobs;
  for (int i = 0; i < 60; ++i) {
    TracedJob job;
    job.submit_time = 400.0 * static_cast<double>(i);  // no inter-job load
    job.spec = profile.make_job(i, 40);
    job.spec.deadline = 160.0;
    plan_staged_job(job, policy, planner, prices);
    // Planning writes the taus from factors; restore the absolute ones.
    job.spec.stage(0).tau_est = 40.0;
    job.spec.stage(0).tau_kill = 80.0;
    jobs.push_back(job);
  }
  ExperimentConfig config;
  config.policy = policy;
  config.seed = 71;
  sim::NodeConfig node;
  node.containers = containers / 10;
  config.cluster = sim::ClusterConfig::uniform(10, node);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
  return run_experiment(jobs, config).pocd();
}

TEST(Ablation, MultiWaveCollapsesCloneFirst) {
  // With enough containers every strategy keeps the single-wave PoCD. At 40
  // containers Clone's r + 1 copies per task no longer fit in one wave and
  // it falls below both speculative strategies. (At 20 containers all three
  // collapse, but S-Resume stays above 0.1 at some seeds, so no bound is
  // asserted there.)
  const double clone_40 = multiwave_pocd(PolicyKind::kClone, 40);
  for (const PolicyKind policy :
       {PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    EXPECT_GE(multiwave_pocd(policy, 160), 0.9) << to_string(policy);
    if (policy != PolicyKind::kClone) {
      EXPECT_LT(clone_40, multiwave_pocd(policy, 40)) << to_string(policy);
    }
  }
}

}  // namespace
}  // namespace chronos::trace
