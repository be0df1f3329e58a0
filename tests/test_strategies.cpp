// Behavioural tests of the six speculation policies on controlled jobs.
#include "strategies/policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "mapreduce/scheduler.h"
#include "sim/cluster.h"
#include "sim/simulator.h"

namespace chronos::strategies {
namespace {

using mapreduce::AttemptState;
using mapreduce::JobSpec;
using mapreduce::Scheduler;
using mapreduce::SchedulerConfig;

JobSpec chronos_job(int tasks, long long r) {
  JobSpec spec;
  spec.stage(0).num_tasks = tasks;
  spec.deadline = 120.0;
  spec.stage(0).t_min = 30.0;
  spec.stage(0).beta = 1.3;
  spec.stage(0).tau_est = 40.0;
  spec.stage(0).tau_kill = 80.0;
  spec.stage(0).r = r;
  return spec;
}

struct PolicyRun {
  sim::Simulator simulator;
  sim::Cluster cluster;
  std::unique_ptr<mapreduce::SpeculationPolicy> policy;
  std::unique_ptr<Scheduler> scheduler;

  PolicyRun(PolicyKind kind, const JobSpec& spec, std::uint64_t seed = 11,
      int nodes = 8, int containers = 32,
      PolicyOptions options = PolicyOptions{})
      : cluster(sim::ClusterConfig::uniform(nodes, [&] {
          sim::NodeConfig node;
          node.containers = containers;
          return node;
        }())) {
    policy = make_policy(kind, options);
    scheduler = std::make_unique<Scheduler>(simulator, cluster, *policy,
                                            SchedulerConfig{}, Rng(seed));
    scheduler->submit(spec);
    simulator.run();
  }

  const mapreduce::JobRecord& job() const { return scheduler->job(0); }
};

TEST(PolicyFactory, NamesMatchPaper) {
  EXPECT_EQ(make_policy(PolicyKind::kHadoopNS)->name(), "Hadoop-NS");
  EXPECT_EQ(make_policy(PolicyKind::kHadoopS)->name(), "Hadoop-S");
  EXPECT_EQ(make_policy(PolicyKind::kMantri)->name(), "Mantri");
  EXPECT_EQ(make_policy(PolicyKind::kClone)->name(), "Clone");
  EXPECT_EQ(make_policy(PolicyKind::kSRestart)->name(), "S-Restart");
  EXPECT_EQ(make_policy(PolicyKind::kSResume)->name(), "S-Resume");
  EXPECT_EQ(to_string(PolicyKind::kSResume), "S-Resume");
}

TEST(HadoopNS, NeverSpeculates) {
  PolicyRun run(PolicyKind::kHadoopNS, chronos_job(8, 3));
  EXPECT_EQ(run.job().attempts_launched, 8);
  EXPECT_EQ(run.job().attempts_killed, 0);
}

TEST(HadoopS, SpeculatesOnlyAfterFirstCompletion) {
  PolicyRun run(PolicyKind::kHadoopS, chronos_job(12, 0), 23);
  const auto& job = run.job();
  double first_completion = 1e18;
  for (const auto& task : job.tasks) {
    first_completion = std::min(first_completion, task.completion_time);
  }
  for (const auto& attempt : job.attempts) {
    if (attempt.attempt_id >= job.spec.stage(0).num_tasks) {  // speculative copy
      EXPECT_GT(attempt.request_time, first_completion);
    }
  }
}

TEST(HadoopS, AtMostOneExtraAttemptPerTask) {
  PolicyRun run(PolicyKind::kHadoopS, chronos_job(12, 0), 29);
  for (const auto& task : run.job().tasks) {
    EXPECT_LE(task.extra_attempts_launched, 1);
  }
}

TEST(Mantri, RespectsExtraAttemptCap) {
  PolicyOptions options;
  options.mantri_max_extra = 3;
  PolicyRun run(PolicyKind::kMantri, chronos_job(12, 0), 31, 8, 32, options);
  for (const auto& task : run.job().tasks) {
    EXPECT_LE(task.extra_attempts_launched, 3);
  }
}

TEST(Mantri, LaunchesOnlyWithIdleCapacity) {
  // Saturated cluster (1 node, 6 containers, 12 tasks): Mantri must not
  // speculate while original attempts still queue for containers.
  PolicyRun run(PolicyKind::kMantri, chronos_job(12, 0), 37, 1, 6);
  const auto& job = run.job();
  EXPECT_TRUE(job.done);
  double first_completion = 1e18;
  for (const auto& task : job.tasks) {
    first_completion = std::min(first_completion, task.completion_time);
  }
  for (const auto& attempt : job.attempts) {
    if (attempt.attempt_id >= job.spec.stage(0).num_tasks) {
      // Capacity only frees up once some original finishes.
      EXPECT_GT(attempt.request_time, first_completion);
    }
  }
}

TEST(Clone, LaunchesRPlusOneCopiesPerTask) {
  PolicyRun run(PolicyKind::kClone, chronos_job(6, 2));
  const auto& job = run.job();
  EXPECT_EQ(job.attempts_launched, 6 * 3);
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    EXPECT_EQ(job.attempts_of(t).size(), 3u);
  }
}

TEST(Clone, ExactlyOneSurvivorPerTask) {
  PolicyRun run(PolicyKind::kClone, chronos_job(6, 2));
  const auto& job = run.job();
  EXPECT_EQ(job.attempts_killed, 6 * 2);
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    int finished = 0;
    for (const int id : job.attempts_of(t)) {
      finished += job.attempts[static_cast<std::size_t>(id)].state ==
                          AttemptState::kFinished
                      ? 1
                      : 0;
    }
    EXPECT_EQ(finished, 1);
  }
}

TEST(Clone, KillsLosersNoLaterThanTauKill) {
  PolicyRun run(PolicyKind::kClone, chronos_job(6, 2));
  const auto& job = run.job();
  for (const auto& attempt : job.attempts) {
    if (attempt.state == AttemptState::kKilled) {
      EXPECT_LE(attempt.end_time, job.spec.stage(0).tau_kill + 1e-9);
    }
  }
}

TEST(SRestart, ExtrasLaunchedOnlyAtTauEst) {
  PolicyRun run(PolicyKind::kSRestart, chronos_job(20, 2), 41);
  const auto& job = run.job();
  for (const auto& attempt : job.attempts) {
    if (attempt.attempt_id >= job.spec.stage(0).num_tasks) {
      EXPECT_NEAR(attempt.request_time, job.spec.stage(0).tau_est, 1e-9);
      EXPECT_EQ(attempt.start_offset, 0.0);  // restart from byte 0
    } else {
      EXPECT_NEAR(attempt.request_time, 0.0, 1e-9);
    }
  }
}

TEST(SRestart, SpeculatedTasksGetExactlyRExtras) {
  PolicyRun run(PolicyKind::kSRestart, chronos_job(20, 2), 43);
  for (const auto& task : run.job().tasks) {
    EXPECT_TRUE(task.extra_attempts_launched == 0 ||
                task.extra_attempts_launched == 2)
        << task.extra_attempts_launched;
  }
}

TEST(SRestart, OriginalKeptRunningAfterDetection) {
  PolicyRun run(PolicyKind::kSRestart, chronos_job(20, 2), 47);
  const auto& job = run.job();
  for (const auto& task : job.tasks) {
    if (task.extra_attempts_launched == 0) {
      continue;
    }
    // The original of a speculated task is not killed at tau_est; it either
    // finishes or is killed at tau_kill/task completion, strictly later.
    const auto& original =
        job.attempts[static_cast<std::size_t>(task.first_attempt)];
    EXPECT_GT(original.end_time, job.spec.stage(0).tau_est + 1e-9);
  }
}

TEST(SResume, KillsOriginalAtDetection) {
  PolicyRun run(PolicyKind::kSResume, chronos_job(20, 2), 53);
  const auto& job = run.job();
  for (const auto& task : job.tasks) {
    if (task.extra_attempts_launched == 0) {
      continue;
    }
    const auto& original =
        job.attempts[static_cast<std::size_t>(task.first_attempt)];
    EXPECT_EQ(original.state, AttemptState::kKilled);
    EXPECT_NEAR(original.end_time, job.spec.stage(0).tau_est, 1e-9);
  }
}

TEST(SResume, LaunchesRPlusOneResumedCopies) {
  PolicyRun run(PolicyKind::kSResume, chronos_job(20, 2), 59);
  const auto& job = run.job();
  for (const auto& task : job.tasks) {
    if (task.extra_attempts_launched == 0) {
      continue;
    }
    // r+1 = 3 fresh copies (one task may fall back to a single full copy
    // when the resume offset reaches 1; offset < 1 here by construction).
    EXPECT_EQ(task.extra_attempts_launched, 3);
  }
}

TEST(SResume, ResumedCopiesSkipProcessedBytes) {
  PolicyRun run(PolicyKind::kSResume, chronos_job(20, 2), 61);
  const auto& job = run.job();
  bool any_resumed = false;
  for (const auto& attempt : job.attempts) {
    if (attempt.attempt_id >= job.spec.stage(0).num_tasks) {
      EXPECT_GE(attempt.start_offset, 0.0);
      EXPECT_LT(attempt.start_offset, 1.0);
      any_resumed = any_resumed || attempt.start_offset > 0.0;
    }
  }
  // With a 40 s detection point and >= 30 s tasks, detected stragglers have
  // processed a meaningful fraction: some resumed copy must have offset > 0.
  EXPECT_TRUE(any_resumed);
}

TEST(SResume, CheaperThanSRestartOnSameWorkload) {
  // Work preservation: resumed copies process less data, so total machine
  // time is lower than restarting from scratch (paper §VII).
  double restart_time = 0.0;
  double resume_time = 0.0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    restart_time +=
        PolicyRun(PolicyKind::kSRestart, chronos_job(20, 2), seed).job().machine_time;
    resume_time +=
        PolicyRun(PolicyKind::kSResume, chronos_job(20, 2), seed).job().machine_time;
  }
  EXPECT_LT(resume_time, restart_time);
}

TEST(AllPolicies, EveryJobCompletes) {
  for (const PolicyKind kind :
       {PolicyKind::kHadoopNS, PolicyKind::kHadoopS, PolicyKind::kMantri,
        PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    PolicyRun run(kind, chronos_job(10, 1), 71);
    EXPECT_TRUE(run.job().done) << to_string(kind);
    EXPECT_EQ(run.scheduler->metrics().jobs(), 1u) << to_string(kind);
  }
}

// --- retired jobs -------------------------------------------------------------

/// Retires each job the moment it completes, as both engines do, so the
/// policy's timers and the cluster's queued grants can outlive the job's
/// record.
struct RetiringRun {
  sim::Simulator simulator;
  sim::Cluster cluster;
  std::unique_ptr<mapreduce::SpeculationPolicy> policy;
  Scheduler scheduler;

  RetiringRun(PolicyKind kind, int containers)
      : cluster(sim::ClusterConfig::uniform(1, [&] {
          sim::NodeConfig node;
          node.containers = containers;
          return node;
        }())),
        policy(make_policy(kind)),
        scheduler(simulator, cluster, *policy, SchedulerConfig{}, Rng(5)) {
    scheduler.retire_completed_jobs();
  }
};

TEST(RetiredJobs, TimersFiringAfterRetirementAreNoOps) {
  // Tasks of ~1.5 s against timers at 45-100 s (and Hadoop-S / Mantri
  // checks every second): every policy timer still pending at completion
  // fires after the record is gone. Each must return without touching it,
  // so the run executes exactly the events of one that keeps the record.
  JobSpec spec = chronos_job(10, 2);
  spec.stage(0).t_min = 1.0;
  spec.stage(0).beta = 3.0;
  spec.stage(0).tau_est = 50.0;
  spec.stage(0).tau_kill = 100.0;
  for (const PolicyKind kind :
       {PolicyKind::kHadoopS, PolicyKind::kMantri, PolicyKind::kClone,
        PolicyKind::kSRestart, PolicyKind::kSResume}) {
    RetiringRun retiring(kind, 64);
    retiring.scheduler.submit(spec);
    retiring.simulator.run();
    PolicyRun kept(kind, spec, 5, 1, 64);

    EXPECT_EQ(retiring.scheduler.live_jobs(), 0) << to_string(kind);
    EXPECT_TRUE(retiring.scheduler.job_done(0)) << to_string(kind);
    EXPECT_THROW(retiring.scheduler.job(0), PreconditionError)
        << to_string(kind);
    const auto& outcome = retiring.scheduler.metrics().outcomes().at(0);
    EXPECT_GT(retiring.simulator.now(), outcome.completion_time)
        << to_string(kind) << ": no timer outlived the job";
    EXPECT_EQ(retiring.simulator.events_executed(),
              kept.simulator.events_executed())
        << to_string(kind);
    EXPECT_EQ(outcome.machine_time, kept.job().machine_time)
        << to_string(kind);
    EXPECT_EQ(retiring.cluster.busy_containers(), 0) << to_string(kind);
  }
}

TEST(RetiredJobs, GrantForKilledQueuedAttemptReturnsTheContainer) {
  // Two containers. Y holds one for ~100 s, X's original the other for
  // ~10 s, and Z (submitted at t = 1) queues. At tau_est = 2 X's original
  // is a straggler (deadline 1 s) and S-Restart queues two extras behind Z.
  // When the original finishes, its container goes to Z and X's extras
  // are killed while still queued; X completes and is retired. When Y
  // finishes, the cluster grants the extras' stale requests: each grant
  // must hand its container straight back.
  auto job = [](int id, double t_min, long long r, double deadline) {
    JobSpec spec;
    spec.job_id = id;
    spec.deadline = deadline;
    spec.stage(0).num_tasks = 1;
    spec.stage(0).t_min = t_min;
    spec.stage(0).beta = 50.0;
    spec.stage(0).tau_est = 2.0;
    spec.stage(0).tau_kill = 30.0;
    spec.stage(0).r = r;
    return spec;
  };
  RetiringRun run(PolicyKind::kSRestart, 2);
  run.scheduler.submit(job(0, 100.0, 0, 1000.0));  // Y
  run.scheduler.submit(job(1, 10.0, 2, 1.0));      // X
  run.simulator.at(1.0, [&] {
    run.scheduler.submit(job(2, 100.0, 0, 1000.0));  // Z
  });
  run.simulator.run();

  EXPECT_EQ(run.scheduler.live_jobs(), 0);
  EXPECT_EQ(run.cluster.busy_containers(), 0);
  EXPECT_EQ(run.cluster.pending_requests(), 0u);
  const auto& outcomes = run.scheduler.metrics().outcomes();
  ASSERT_EQ(outcomes.size(), 3u);
  const auto& x = outcomes[0];  // X completes first
  EXPECT_EQ(x.job_id, 1);
  EXPECT_EQ(x.attempts_launched, 3);
  EXPECT_EQ(x.attempts_killed, 2);
  // The killed extras never ran: X's machine time is its original alone.
  EXPECT_NEAR(x.machine_time, x.completion_time, 1e-9);
}

}  // namespace
}  // namespace chronos::strategies
