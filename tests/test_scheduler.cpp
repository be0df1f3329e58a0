// Scheduler lifecycle tests: attempt execution, kills, container accounting,
// machine-time accrual, and metrics.
#include "mapreduce/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sim/cluster.h"
#include "sim/simulator.h"
#include "strategies/policies.h"

namespace chronos::mapreduce {
namespace {

JobSpec small_job(int tasks = 4) {
  JobSpec spec;
  spec.job_id = 0;
  spec.stage(0).num_tasks = tasks;
  spec.deadline = 120.0;
  spec.stage(0).t_min = 30.0;
  spec.stage(0).beta = 1.5;
  spec.stage(0).tau_est = 40.0;
  spec.stage(0).tau_kill = 80.0;
  spec.price = 2.0;
  return spec;
}

struct Rig {
  sim::Simulator simulator;
  sim::Cluster cluster;
  strategies::HadoopNoSpeculation policy;
  Scheduler scheduler;

  explicit Rig(int nodes = 4, int containers = 8, std::uint64_t seed = 1)
      : cluster(sim::ClusterConfig::uniform(
            nodes, [&] {
              sim::NodeConfig node;
              node.containers = containers;
              return node;
            }())),
        scheduler(simulator, cluster, policy, {.retain_outcomes = true},
                  Rng(seed)) {}
};

TEST(Scheduler, SingleJobRunsToCompletion) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  EXPECT_TRUE(job.done);
  EXPECT_EQ(job.tasks_completed, 4);
  EXPECT_EQ(rig.scheduler.metrics().jobs(), 1u);
}

TEST(Scheduler, CompletionTimeIsMaxTaskTime) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  double max_task = 0.0;
  for (const auto& task : job.tasks) {
    EXPECT_TRUE(task.completed);
    max_task = std::max(max_task, task.completion_time);
  }
  EXPECT_NEAR(job.completion_time, max_task, 1e-9);
  EXPECT_GE(job.completion_time, 30.0);  // every attempt takes >= t_min
}

TEST(Scheduler, MachineTimeEqualsSumOfAttemptDurations) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  double sum = 0.0;
  for (const auto& attempt : job.attempts) {
    EXPECT_TRUE(attempt.ended());
    sum += attempt.end_time - attempt.launch_time;
  }
  EXPECT_NEAR(job.machine_time, sum, 1e-9);
  EXPECT_GE(job.machine_time, 4 * 30.0);
}

TEST(Scheduler, OutcomeCostUsesPrice) {
  Rig rig;
  rig.scheduler.submit(small_job());
  rig.simulator.run();
  const auto& outcome = rig.scheduler.metrics().outcomes().front();
  const auto& job = rig.scheduler.job(0);
  EXPECT_NEAR(outcome.cost, 2.0 * job.machine_time, 1e-9);
  EXPECT_EQ(outcome.met_deadline,
            job.completion_time <= job.spec.deadline);
}

TEST(Scheduler, AllContainersReleasedAtEnd) {
  Rig rig;
  rig.scheduler.submit(small_job(16));
  rig.simulator.run();
  EXPECT_EQ(rig.cluster.idle_containers(), rig.cluster.total_containers());
  EXPECT_EQ(rig.cluster.pending_requests(), 0u);
}

TEST(Scheduler, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Rig rig(4, 8, seed);
    rig.scheduler.submit(small_job(8));
    rig.simulator.run();
    return rig.scheduler.job(0).completion_time;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(Scheduler, QueuesWhenClusterSaturated) {
  Rig rig(1, 2);  // 2 containers, 6 tasks
  rig.scheduler.submit(small_job(6));
  rig.simulator.run();
  const auto& job = rig.scheduler.job(0);
  EXPECT_TRUE(job.done);
  // With only 2 containers, later attempts must have waited: their launch
  // time exceeds their request time.
  bool queued = false;
  for (const auto& attempt : job.attempts) {
    queued = queued || attempt.launch_time > attempt.request_time;
  }
  EXPECT_TRUE(queued);
}

TEST(Scheduler, JvmStartupDelaysProgress) {
  Rig rig;
  auto spec = small_job(1);
  spec.jvm_mean = 5.0;
  spec.jvm_jitter = 0.0;
  rig.scheduler.submit(spec);
  rig.simulator.run();
  const auto& attempt = rig.scheduler.job(0).attempts.front();
  EXPECT_GT(attempt.jvm_time, 0.0);
  EXPECT_NEAR(attempt.end_time,
              attempt.launch_time + attempt.jvm_time + attempt.work_duration,
              1e-9);
}

/// Policy used to exercise kills and sibling completion from tests.
class KillAtTime final : public SpeculationPolicy {
 public:
  std::string name() const override { return "test-kill"; }
  int initial_attempts(const JobSpec&, int) const override { return 2; }
  void on_job_start(int job, SchedulerApi& api) override {
    api.schedule_after(1.0, [job, &api] {
      // Kill the second attempt of task 0 early.
      const auto active = api.active_attempts(job, 0);
      if (active.size() > 1) {
        int last = -1;
        for (const int id : active) {
          last = id;
        }
        api.kill_attempt(job, last);
      }
    });
  }
};

TEST(Scheduler, PolicyKillsAreAccounted) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 16;
  sim::Cluster cluster(sim::ClusterConfig::uniform(2, node));
  KillAtTime policy;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(3));
  scheduler.submit(small_job(2));
  simulator.run();
  const auto& job = scheduler.job(0);
  EXPECT_TRUE(job.done);
  // 2 tasks x 2 attempts launched; at least the killed one plus the loser
  // of task 1 are killed.
  EXPECT_EQ(job.attempts_launched, 4);
  EXPECT_GE(job.attempts_killed, 2);
  // Task 0 still completed via its surviving attempt.
  EXPECT_TRUE(job.tasks[0].completed);
}

TEST(Scheduler, SiblingAttemptsKilledOnTaskCompletion) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 16;
  sim::Cluster cluster(sim::ClusterConfig::uniform(2, node));
  strategies::Clone policy;
  auto spec = small_job(3);
  spec.stage(0).r = 2;  // 3 attempts per task
  spec.stage(0).tau_kill = 1e9;  // never reap: completion does the killing
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(5));
  scheduler.submit(spec);
  simulator.run();
  const auto& job = scheduler.job(0);
  EXPECT_EQ(job.attempts_launched, 9);
  EXPECT_EQ(job.attempts_killed, 6);  // 2 losers per task
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

TEST(Scheduler, RejectsInvalidSpec) {
  Rig rig;
  auto spec = small_job();
  spec.stage(0).num_tasks = 0;
  EXPECT_THROW(rig.scheduler.submit(spec), PreconditionError);

  // Infinity passes every `> 0` / `>=` range check, so each double field
  // also needs its own finiteness check; NaN fails them all already.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<const char*, void (*)(JobSpec&, double)>>
      fields = {
          {"deadline", [](JobSpec& j, double v) { j.deadline = v; }},
          {"price", [](JobSpec& j, double v) { j.price = v; }},
          {"jvm_mean", [](JobSpec& j, double v) { j.jvm_mean = v; }},
          {"jvm_jitter", [](JobSpec& j, double v) { j.jvm_jitter = v; }},
          {"jvm_mean+jitter",
           [](JobSpec& j, double v) { j.jvm_mean = j.jvm_jitter = v; }},
          {"t_min", [](JobSpec& j, double v) { j.stage(0).t_min = v; }},
          {"beta", [](JobSpec& j, double v) { j.stage(0).beta = v; }},
          {"tau_kill", [](JobSpec& j, double v) { j.stage(0).tau_kill = v; }},
          {"tau_est=tau_kill",
           [](JobSpec& j, double v) {
             j.stage(0).tau_est = j.stage(0).tau_kill = v;
           }},
      };
  for (const auto& [name, set] : fields) {
    for (const double bad :
         {inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
      auto invalid = small_job();
      set(invalid, bad);
      EXPECT_THROW(rig.scheduler.submit(invalid), PreconditionError)
          << name << " = " << bad;
    }
  }
  // A staged job checks every stage, not just the first.
  auto staged = small_job();
  staged.stages.push_back(staged.stage(0));
  staged.stage(1).t_min = inf;
  EXPECT_THROW(rig.scheduler.submit(staged), PreconditionError);
}

TEST(Scheduler, MultipleJobsInterleave) {
  Rig rig(8, 8);
  rig.scheduler.submit(small_job(4));
  auto second = small_job(4);
  second.job_id = 1;
  second.price = 1.0;
  rig.scheduler.submit(second);
  rig.simulator.run();
  EXPECT_EQ(rig.scheduler.metrics().jobs(), 2u);
  // Outcomes are recorded in completion order; both jobs must be present.
  std::vector<int> ids;
  for (const auto& outcome : rig.scheduler.metrics().outcomes()) {
    ids.push_back(outcome.job_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{0, 1}));
}

TEST(SchedulerApi, AttemptQueriesRejectOutOfRangeIds) {
  Rig rig;
  rig.scheduler.submit(small_job());
  SchedulerApi api(rig.scheduler);
  const int size = static_cast<int>(rig.scheduler.job(0).attempts.size());
  for (const int bad : {-1, size}) {
    EXPECT_THROW(api.attempt(0, bad), PreconditionError) << bad;
    EXPECT_THROW(api.observe(0, bad), PreconditionError) << bad;
    EXPECT_THROW(api.estimate_completion(0, bad), PreconditionError) << bad;
    EXPECT_THROW(
        api.estimate_completion(0, bad, EstimatorKind::kHadoopNaive),
        PreconditionError)
        << bad;
    EXPECT_THROW(api.resume_offset_for(0, bad), PreconditionError) << bad;
  }
}

TEST(Scheduler, SiblingListsHoldEachTasksAttemptsInIdOrder) {
  // S-Resume kills stragglers and launches resumed copies at tau_est, and
  // task completion kills the losers: every task's sibling list must still
  // hold exactly its attempts, in ascending id, with the tail recorded.
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 64;
  sim::Cluster cluster(sim::ClusterConfig::uniform(2, node));
  strategies::SpeculativeResume policy;
  auto spec = small_job(30);
  spec.stage(0).r = 2;
  spec.stage(0).tau_est = 35.0;
  spec.stage(0).tau_kill = 60.0;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(9));
  scheduler.submit(spec);
  simulator.run();
  const auto& job = scheduler.job(0);
  ASSERT_GT(job.attempts_launched, 30);  // some tasks were speculated
  for (int t = 0; t < job.spec.total_tasks(); ++t) {
    std::vector<int> expected;
    for (const auto& attempt : job.attempts) {
      if (attempt.task_index == t) {
        expected.push_back(attempt.attempt_id);
      }
    }
    std::vector<int> walked;
    for (int id = job.tasks[static_cast<std::size_t>(t)].first_attempt;
         id >= 0;
         id = job.attempts[static_cast<std::size_t>(id)].next_sibling) {
      walked.push_back(id);
    }
    EXPECT_EQ(walked, expected) << "task " << t;
    EXPECT_EQ(job.tasks[static_cast<std::size_t>(t)].last_attempt,
              expected.back());
    EXPECT_TRUE(job.active_attempts(t).empty()) << "task " << t;
  }
}


/// Records every hook it receives, per job, and launches `copies` attempts
/// of every task when a stage starts.
class RecordingPolicy final : public SpeculationPolicy {
 public:
  struct Hooks {
    std::vector<int> initial_attempt_stages;
    int job_starts = 0;
    std::vector<std::pair<int, double>> stage_starts;  ///< (stage, time)
    int tasks_completed = 0;
    int job_completions = 0;
  };

  explicit RecordingPolicy(int copies) : copies_(copies) {}

  std::string name() const override { return "test-recording"; }
  int initial_attempts(const JobSpec& spec, int stage) const override {
    // Only the spec reaches this hook; the test sets job_id = job index.
    seen[spec.job_id].initial_attempt_stages.push_back(stage);
    return copies_;
  }
  void on_job_start(int job, SchedulerApi&) override {
    ++seen[job].job_starts;
  }
  void on_stage_start(int job, int stage, SchedulerApi& api) override {
    seen[job].stage_starts.emplace_back(stage, api.now());
  }
  void on_task_completed(int job, int, SchedulerApi&) override {
    ++seen[job].tasks_completed;
  }
  void on_job_completed(int job, SchedulerApi&) override {
    ++seen[job].job_completions;
  }

  int copies() const { return copies_; }

  /// Hooks by job index.
  mutable std::map<int, Hooks> seen;

 private:
  int copies_;
};

/// A 3-stage fan-out job: stages 1 and 2 both wait on stage 0 only.
JobSpec fan_out_job(int job_id) {
  JobSpec spec = small_job(2);
  spec.job_id = job_id;
  spec.deadline = 400.0;
  spec.stages.push_back(spec.stage(0));
  spec.stages.push_back(spec.stage(0));
  spec.stage(1).num_tasks = 3;
  spec.stage(1).deps = {0};
  spec.stage(2).deps = {0};
  return spec;
}

TEST(Scheduler, EveryHookReachesThePolicyTheJobWasSubmittedUnder) {
  constexpr int kJobs = 9;
  constexpr double kGap = 7.0;  // well under a stage's t_min of 30 s
  for (const bool retire : {false, true}) {
    SCOPED_TRACE(retire ? "retiring" : "keeping records");
    sim::Simulator simulator;
    sim::NodeConfig node;
    node.containers = 8;
    sim::Cluster cluster(sim::ClusterConfig::uniform(4, node));
    RecordingPolicy a(1);
    RecordingPolicy b(2);
    RecordingPolicy fallback(1);
    Scheduler scheduler(simulator, cluster, fallback,
                        {.retain_outcomes = true}, Rng(7));
    if (retire) {
      scheduler.retire_completed_jobs();
    }
    // Submissions cycle A, B, default, so every job's later stages start
    // after other jobs were submitted under other policies.
    const std::array<RecordingPolicy*, 3> cycle = {&a, &b, &fallback};
    std::vector<const RecordingPolicy*> owner;
    for (int i = 0; i < kJobs; ++i) {
      RecordingPolicy* policy = cycle[static_cast<std::size_t>(i % 3)];
      owner.push_back(policy);
      simulator.at(kGap * i, [&, i, policy] {
        const JobSpec spec = fan_out_job(i);
        const int job = policy == &fallback ? scheduler.submit(spec)
                                            : scheduler.submit(spec, *policy);
        EXPECT_EQ(job, i);
      });
    }
    simulator.run();
    ASSERT_EQ(scheduler.metrics().jobs(), static_cast<std::size_t>(kJobs));
    EXPECT_EQ(scheduler.live_jobs(), retire ? 0 : kJobs);

    for (int job = 0; job < kJobs; ++job) {
      SCOPED_TRACE("job " + std::to_string(job));
      const RecordingPolicy* mine = owner[static_cast<std::size_t>(job)];
      for (std::size_t p = 0; p < cycle.size(); ++p) {
        if (cycle[p] != mine) {
          EXPECT_EQ(cycle[p]->seen.count(job), 0u) << "policy " << p;
        }
      }
      const auto it = mine->seen.find(job);
      ASSERT_NE(it, mine->seen.end());
      const RecordingPolicy::Hooks& hooks = it->second;
      for (const int stage : {0, 1, 2}) {
        EXPECT_GE(std::count(hooks.initial_attempt_stages.begin(),
                             hooks.initial_attempt_stages.end(), stage),
                  1)
            << "stage " << stage;
      }
      EXPECT_EQ(hooks.job_starts, 1);
      ASSERT_EQ(hooks.stage_starts.size(), 3u);
      for (int stage = 0; stage < 3; ++stage) {
        EXPECT_EQ(hooks.stage_starts[static_cast<std::size_t>(stage)].first,
                  stage);
      }
      if (job + 1 < kJobs) {
        // Stage 1 started after the next job's submission.
        EXPECT_GT(hooks.stage_starts[1].second, kGap * (job + 1));
      }
      EXPECT_EQ(hooks.tasks_completed, 7);
      EXPECT_EQ(hooks.job_completions, 1);
    }
    // No policy speculates, so each job launched exactly its policy's
    // copies of each of its 7 tasks.
    ASSERT_EQ(scheduler.metrics().outcomes().size(),
              static_cast<std::size_t>(kJobs));
    for (const auto& outcome : scheduler.metrics().outcomes()) {
      EXPECT_EQ(outcome.attempts_launched,
                7 * owner[static_cast<std::size_t>(outcome.job_id)]->copies())
          << "job " << outcome.job_id;
    }
  }
}

/// Polls mean_completed_task_time every second, as Mantri does, and after
/// each task completion, checking every answer bit-for-bit against a fresh
/// ascending-index fold over the job's tasks.
class MeanTaskTimeProbe final : public SpeculationPolicy {
 public:
  int checks = 0;
  int mismatches = 0;

  std::string name() const override { return "test-mean"; }
  void on_job_start(int job, SchedulerApi& api) override { poll(job, api); }
  void on_task_completed(int job, int, SchedulerApi& api) override {
    check(job, api);
  }

 private:
  void poll(int job, SchedulerApi& api) {
    if (api.job_done(job)) {
      return;
    }
    check(job, api);
    api.schedule_after(1.0, [this, job, &api] { poll(job, api); });
  }

  void check(int job, SchedulerApi& api) {
    double sum = 0.0;
    int count = 0;
    for (const auto& task : api.job(job).tasks) {
      if (task.completed) {
        sum += task.completion_time;
        ++count;
      }
    }
    const double fresh =
        count == 0 ? 0.0 : sum / static_cast<double>(count);
    for (int repeat = 0; repeat < 2; ++repeat) {
      ++checks;
      if (api.mean_completed_task_time(job) != fresh) {
        ++mismatches;
      }
    }
  }
};

TEST(SchedulerApi, MeanCompletedTaskTimeMatchesAFreshFold) {
  sim::Simulator simulator;
  sim::NodeConfig node;
  node.containers = 4;
  sim::Cluster cluster(sim::ClusterConfig::uniform(1, node));
  MeanTaskTimeProbe policy;
  Scheduler scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(3));
  scheduler.submit(small_job(12));
  scheduler.submit(small_job(7));
  simulator.run();
  EXPECT_EQ(scheduler.metrics().jobs(), 2u);
  EXPECT_GT(policy.checks, 2 * (12 + 7));  // timer polls between completions
  EXPECT_EQ(policy.mismatches, 0);
}

}  // namespace
}  // namespace chronos::mapreduce
