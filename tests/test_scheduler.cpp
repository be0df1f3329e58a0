// Scheduler lifecycle tests: attempt execution, kills, container accounting,
// machine-time accrual, and metrics.
#include "mapreduce/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

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
        scheduler(simulator, cluster, policy, SchedulerConfig{}, Rng(seed)) {}
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
  EXPECT_EQ(rig.cluster.busy_containers(), 0);
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
    for (const int id : job.attempts_of(t)) {
      finished +=
          job.attempts[static_cast<std::size_t>(id)].state ==
                  AttemptState::kFinished
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
    for (const int id : job.attempts_of(t)) {
      walked.push_back(id);
    }
    EXPECT_EQ(walked, expected) << "task " << t;
    EXPECT_EQ(job.tasks[static_cast<std::size_t>(t)].last_attempt,
              expected.back());
    EXPECT_TRUE(job.active_attempts_of(t).empty()) << "task " << t;
  }
}

}  // namespace
}  // namespace chronos::mapreduce
