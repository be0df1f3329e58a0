// Behavioural tests of the six speculation policies on controlled jobs.
#include "strategies/policies.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
using mapreduce::SchedulerApi;
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

TEST(Mantri, NoReportFallbackCountsFromTheStageStart) {
  // Stage 1's near-deterministic tasks (~4 s, 3 of them JVM start-up) start
  // long after submission. While their attempts start up nothing has
  // reported, so the elapsed-time fallback decides. Measured from the job's
  // submission, each looks like an outlier on every such check and gets
  // all 3 extra attempts; measured from its stage's start, none does.
  JobSpec spec;
  spec.deadline = 1000.0;
  spec.jvm_mean = 3.0;
  spec.stages.resize(2);
  spec.stage(0).num_tasks = 8;
  spec.stage(0).t_min = 10.0;
  spec.stage(0).beta = 1.2;
  spec.stage(1).num_tasks = 8;
  spec.stage(1).t_min = 4.0;
  spec.stage(1).beta = 50.0;
  for (const std::uint64_t seed : {11u, 12u}) {
    PolicyRun run(PolicyKind::kMantri, spec, seed, 1, 64);
    const auto& job = run.job();
    ASSERT_TRUE(job.done) << seed;
    for (int t = job.spec.first_task(1); t < job.spec.total_tasks(); ++t) {
      EXPECT_EQ(job.tasks[static_cast<std::size_t>(t)].extra_attempts_launched,
                0)
          << "seed " << seed << ", task " << t;
    }
  }
}

TEST(Clone, LaunchesRPlusOneCopiesPerTask) {
  PolicyRun run(PolicyKind::kClone, chronos_job(6, 2));
  const auto& job = run.job();
  EXPECT_EQ(job.attempts_launched, 6 * 3);
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    EXPECT_EQ(std::count_if(job.attempts.begin(), job.attempts.end(),
                            [t](const auto& a) { return a.task_index == t; }),
              3);
  }
}

TEST(Clone, ExactlyOneSurvivorPerTask) {
  PolicyRun run(PolicyKind::kClone, chronos_job(6, 2));
  const auto& job = run.job();
  EXPECT_EQ(job.attempts_killed, 6 * 2);
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    int finished = 0;
    for (const auto& attempt : job.attempts) {
      finished += attempt.task_index == t &&
                          attempt.state == AttemptState::kFinished
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
        scheduler(simulator, cluster, *policy, {.retain_outcomes = true},
                  Rng(5)) {
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
    EXPECT_EQ(retiring.cluster.idle_containers(),
              retiring.cluster.total_containers())
        << to_string(kind);
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
  EXPECT_EQ(run.cluster.idle_containers(), run.cluster.total_containers());
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

// --- Mantri's candidate list ------------------------------------------------

/// Mantri's launch check as a full scan: every check walks every incomplete
/// task and re-reads spare capacity before each one. Same fallback (from the
/// stage's start) and same prune as Mantri. `capacity_breaks` counts checks
/// that stopped on capacity with incomplete tasks still unvisited.
class FullScanMantri final : public mapreduce::SpeculationPolicy {
 public:
  explicit FullScanMantri(PolicyOptions options) : options_(options) {}
  std::string name() const override { return "Mantri (full scan)"; }

  void on_job_start(int job, SchedulerApi& api) override {
    api.schedule_after(options_.check_period,
                       [this, job, &api] { check(job, api); });
    api.schedule_after(options_.mantri_prune_period,
                       [this, job, &api] { prune(job, api); });
  }

  int capacity_breaks = 0;

 private:
  void check(int job, SchedulerApi& api) {
    if (api.job_done(job)) {
      return;
    }
    const auto& record = api.job(job);
    const double now = api.now();
    const auto has_spare_capacity = [&api] {
      return api.cluster_has_idle_container() &&
             api.cluster_pending_requests() == 0;
    };
    const double average =
        has_spare_capacity() ? api.mean_completed_task_time(job) : 0.0;
    if (average > 0.0) {
      for (const int task : api.incomplete_tasks(job)) {
        if (!has_spare_capacity()) {
          ++capacity_breaks;
          break;
        }
        if (record.tasks[static_cast<std::size_t>(task)]
                .extra_attempts_launched >= options_.mantri_max_extra) {
          continue;
        }
        const auto active = api.active_attempts(job, task);
        if (active.empty()) {
          continue;
        }
        double best_remaining = std::numeric_limits<double>::infinity();
        for (const int id : active) {
          const double estimate = api.estimate_completion(job, id);
          if (std::isfinite(estimate)) {
            best_remaining = std::min(best_remaining, estimate - now);
          }
        }
        if (!std::isfinite(best_remaining)) {
          best_remaining =
              now - record.stage_states[static_cast<std::size_t>(
                      record.stage_of_task(task))]
                .start_time;
        }
        if (best_remaining > average + options_.mantri_threshold) {
          api.launch_extra_attempt(job, task, 0.0);
        }
      }
    }
    api.schedule_after(options_.check_period,
                       [this, job, &api] { check(job, api); });
  }

  void prune(int job, SchedulerApi& api) {
    if (api.job_done(job)) {
      return;
    }
    for (const int task : api.incomplete_tasks(job)) {
      const auto active = api.active_attempts(job, task);
      if (active.size() < 2) {
        continue;
      }
      int best = -1;
      double best_progress = -1.0;
      std::vector<int> reported;
      for (const int id : active) {
        if (api.now() - api.attempt(job, id).launch_time <
            0.5 * options_.mantri_prune_period) {
          continue;
        }
        const auto report = api.observe(job, id);
        if (!report.available) {
          continue;
        }
        reported.push_back(id);
        if (report.progress > best_progress) {
          best_progress = report.progress;
          best = id;
        }
      }
      if (reported.size() < 2) {
        continue;
      }
      for (const int id : reported) {
        if (id != best) {
          api.kill_attempt(job, id);
        }
      }
    }
    api.schedule_after(options_.mantri_prune_period,
                       [this, job, &api] { prune(job, api); });
  }

  PolicyOptions options_;
};

struct MantriScenario {
  const char* name;
  int nodes;
  int containers;
  /// Submission time and spec of each job.
  std::vector<std::pair<double, JobSpec>> jobs;
};

struct ReplayResult {
  std::vector<sim::JobOutcome> outcomes;
  std::uint64_t events_executed = 0;
};

ReplayResult replay(const MantriScenario& scenario,
                    mapreduce::SpeculationPolicy& policy, bool retire) {
  sim::Simulator simulator;
  sim::Cluster cluster(sim::ClusterConfig::uniform(scenario.nodes, [&] {
    sim::NodeConfig node;
    node.containers = scenario.containers;
    return node;
  }()));
  SchedulerConfig config;
  config.noise = mapreduce::ProgressNoiseConfig::realistic();
  config.retain_outcomes = true;
  Scheduler scheduler(simulator, cluster, policy, config, Rng(19));
  if (retire) {
    scheduler.retire_completed_jobs();
  }
  for (const auto& [at, spec] : scenario.jobs) {
    simulator.at(at, [&scheduler, &spec] { scheduler.submit(spec); });
  }
  simulator.run();
  return {scheduler.metrics().outcomes(), simulator.events_executed()};
}

/// Job i of a scenario: heavy-tailed tasks, sizes and shapes varied by i.
JobSpec mantri_job(int i, int tasks, int stages) {
  JobSpec spec;
  spec.job_id = i;
  spec.deadline = 200.0;
  spec.jvm_mean = 1.0 + 0.5 * (i % 3);
  spec.jvm_jitter = 0.5;
  spec.stages.resize(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    spec.stage(s).num_tasks = tasks - 3 * s;
    spec.stage(s).t_min = 8.0 + 2.0 * ((i + s) % 4);
    spec.stage(s).beta = 1.2 + 0.1 * ((i * 3 + s) % 5);
  }
  return spec;
}

std::vector<MantriScenario> mantri_scenarios() {
  std::vector<MantriScenario> scenarios;
  auto add = [&](const char* name, int nodes, int containers, int jobs,
                 double gap, int stages) {
    MantriScenario scenario{name, nodes, containers, {}};
    for (int i = 0; i < jobs; ++i) {
      scenario.jobs.emplace_back(gap * i,
                                 mantri_job(i, 12 + (7 * i) % 29, stages));
    }
    scenarios.push_back(std::move(scenario));
  };
  add("single-stage", 4, 16, 10, 12.0, 1);
  add("staged", 4, 16, 8, 15.0, 3);
  add("idle", 8, 64, 4, 30.0, 2);
  // More tasks than containers: originals queue, and once the queue drains
  // a check's launches fill the few idle containers partway through.
  add("saturated", 1, 16, 4, 30.0, 1);
  return scenarios;
}

void expect_same_outcome(const sim::JobOutcome& a, const sim::JobOutcome& b,
                         const std::string& where) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(a.job_id, b.job_id) << where;
  EXPECT_EQ(a.met_deadline, b.met_deadline) << where;
  EXPECT_EQ(bits(a.completion_time), bits(b.completion_time)) << where;
  EXPECT_EQ(bits(a.deadline), bits(b.deadline)) << where;
  EXPECT_EQ(bits(a.machine_time), bits(b.machine_time)) << where;
  EXPECT_EQ(bits(a.cost), bits(b.cost)) << where;
  EXPECT_EQ(a.r_used, b.r_used) << where;
  EXPECT_EQ(a.attempts_launched, b.attempts_launched) << where;
  EXPECT_EQ(a.attempts_killed, b.attempts_killed) << where;
  EXPECT_EQ(a.attempts_failed, b.attempts_failed) << where;
}

TEST(Mantri, CandidateListMatchesAFullScan) {
  for (const auto& scenario : mantri_scenarios()) {
    for (const bool retire : {false, true}) {
      const std::string where = std::string(scenario.name) +
                                (retire ? ", retiring" : ", keeping");
      Mantri mantri{PolicyOptions{}};
      FullScanMantri reference{PolicyOptions{}};
      const auto got = replay(scenario, mantri, retire);
      const auto want = replay(scenario, reference, retire);

      ASSERT_EQ(got.outcomes.size(), scenario.jobs.size()) << where;
      ASSERT_EQ(want.outcomes.size(), scenario.jobs.size()) << where;
      EXPECT_EQ(got.events_executed, want.events_executed) << where;
      int tasks = 0;
      int launched = 0;
      for (std::size_t j = 0; j < got.outcomes.size(); ++j) {
        expect_same_outcome(got.outcomes[j], want.outcomes[j], where);
        launched += got.outcomes[j].attempts_launched;
      }
      for (const auto& job : scenario.jobs) {
        tasks += job.second.total_tasks();
      }
      // Mantri acted: the comparison covers launch decisions, not only
      // the originals.
      EXPECT_GT(launched, tasks) << where;
      if (std::string(scenario.name) == "saturated") {
        // Spare capacity ran out partway through some walks, so the kept
        // tail of the candidate list is exercised.
        EXPECT_GT(reference.capacity_breaks, 0) << where;
      }
    }
  }
}

}  // namespace
}  // namespace chronos::strategies
