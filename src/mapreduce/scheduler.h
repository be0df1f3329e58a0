// The application-master / cluster driver.
//
// Owns all job state, talks to the Cluster for containers, executes attempt
// lifecycles on the discrete-event Simulator, and delegates every
// speculation decision to a pluggable SpeculationPolicy. Each job runs under
// the policy it was submitted with, so one scheduler can mix strategies; the
// constructor's policy is the default. The six strategies of §VII
// (Hadoop-NS/S, Mantri, Clone, S-Restart, S-Resume) are implemented as
// policies in src/strategies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mapreduce/job.h"
#include "mapreduce/progress.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace chronos::mapreduce {

class SchedulerApi;

/// Strategy hook interface. Policies keep per-job state keyed by the job
/// index passed to each hook and drive themselves with api.schedule_after;
/// a timer may outlive its job, so it checks api.job_done first.
class SpeculationPolicy {
 public:
  virtual ~SpeculationPolicy() = default;

  virtual std::string name() const = 0;

  /// How many attempts to launch per task when `stage` starts
  /// (Clone: the stage's r + 1).
  virtual int initial_attempts(const JobSpec& spec, int stage) const {
    (void)spec;
    (void)stage;
    return 1;
  }

  /// Most speculative attempts the policy launches per task of `stage`
  /// beyond its initial ones (crash retries aside). The scheduler reserves
  /// each job's attempt table for the initial plus these. The default,
  /// r + 1, is the most any Chronos strategy launches (S-Resume's resumed
  /// copies); every shipped policy overrides it with its own count.
  virtual int max_extra_attempts(const JobSpec& spec, int stage) const {
    return static_cast<int>(spec.stage(stage).r) + 1;
  }

  /// Invoked right after a job's stage-0 attempts have been requested (and
  /// after on_stage_start(job, 0)).
  virtual void on_job_start(int job, SchedulerApi& api) {
    (void)job;
    (void)api;
  }

  /// Invoked whenever a task of `job` completes.
  virtual void on_task_completed(int job, int task, SchedulerApi& api) {
    (void)job;
    (void)task;
    (void)api;
  }

  /// Invoked when a stage's barrier clears and the stage starts, right
  /// after its tasks' initial attempts have been requested. Fires for
  /// every stage, including stage 0 at submission; stage-relative timers
  /// (tau_est / tau_kill) are armed here.
  virtual void on_stage_start(int job, int stage, SchedulerApi& api) {
    (void)job;
    (void)stage;
    (void)api;
  }

  /// Invoked when the job's last task completes.
  virtual void on_job_completed(int job, SchedulerApi& api) {
    (void)job;
    (void)api;
  }
};

/// Crash-failure injection (§VII remarks on system breakdown / VM crash).
struct FailureConfig {
  /// Exponential crash rate per attempt-second of execution. 0 = disabled.
  double rate = 0.0;
  /// When true, a crashed attempt's partial output is lost and the
  /// scheduler's automatic retry restarts from byte 0 even for resumed
  /// attempts; when false the retry keeps the attempt's start offset (the
  /// work-preserving assumption of §VI-B2).
  bool lose_partial_output = true;
};

struct SchedulerConfig {
  ProgressNoiseConfig noise = ProgressNoiseConfig::none();
  /// Estimator used by api.estimate_completion unless overridden per call.
  EstimatorKind estimator = EstimatorKind::kChronos;
  /// When false, resume offsets skip the Eq. 31 anticipation of bytes the
  /// original processes during the new attempts' JVM startup (ablation).
  bool anticipate_resume_offset = true;
  /// Opt-in per-job outcome rows in metrics().outcomes(), for callers that
  /// read them. Off, RunMetrics keeps only its running aggregates (the same
  /// values either way), so a run's metrics stay O(1) in its job count.
  bool retain_outcomes = false;
  FailureConfig failures;
};

class Scheduler {
 public:
  /// The simulator, cluster and default policy must outlive the scheduler.
  Scheduler(sim::Simulator& simulator, sim::Cluster& cluster,
            SpeculationPolicy& policy, SchedulerConfig config, Rng rng);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits `spec` at the current simulated time under the default policy;
  /// returns the job index.
  int submit(const JobSpec& spec);

  /// Submits `spec` under `policy`, which receives every hook for the job
  /// and must outlive it.
  int submit(const JobSpec& spec, SpeculationPolicy& policy);

  /// Metrics of all completed jobs.
  const sim::RunMetrics& metrics() const { return metrics_; }

  /// Read access for tests and policies. Throws for a retired job.
  const JobRecord& job(int job) const;
  int num_jobs() const { return static_cast<int>(slot_of_.size()); }

  /// True once the job completed, including after it was retired.
  bool job_done(int job) const;

  /// Jobs whose record is still held: submitted and not yet retired.
  int live_jobs() const {
    return static_cast<int>(records_.size() - free_slots_.size());
  }

  /// Retires every job the moment it completes, so memory tracks in-flight
  /// work rather than total jobs submitted: once the job's policy's
  /// on_job_completed returns, `on_retire` (when set) receives the outcome
  /// just recorded in metrics() and may read the record one last time, and
  /// compact_job frees it. Without this call records are kept for job()
  /// after the run. Call before the first submission.
  using RetireObserver =
      std::function<void(int job, const sim::JobOutcome& outcome)>;
  void retire_completed_jobs(RetireObserver on_retire = {});

 private:
  friend class SchedulerApi;

  /// Retires a completed job: frees its whole record and hands its slot to
  /// a later submission. The one retirement path of both engines: closed
  /// trace replays (trace::run_experiment) and the open-system engine reach
  /// it through retire_completed_jobs. Later policy timers see job_done();
  /// grants still queued for killed attempts of a retired job are returned
  /// to the cluster on arrival.
  void compact_job(int job);

  JobRecord& job_mut(int job);

  /// Range-checked attempt lookup. Throws for a retired job.
  const AttemptRecord& attempt(int job, int attempt_id) const;
  AttemptRecord& attempt_mut(int job, int attempt_id);

  /// Creates an attempt record for `task` starting at `offset` and requests
  /// a container. Returns the attempt id.
  int launch_attempt(int job, int task, double offset);

  /// Called when the cluster grants a container.
  void on_container_granted(int job, int attempt, int node);

  /// Called by the finish event of a running attempt.
  void on_attempt_finished(int job, int attempt);

  /// Called by the crash event of a running attempt (failure injection):
  /// marks it failed and retries the task with a fresh attempt.
  void on_attempt_failed(int job, int attempt);

  /// Kills a waiting or running attempt (no-op when already ended).
  void kill_attempt(int job, int attempt);

  /// Accrues machine time and frees the container of an ended attempt.
  void end_attempt(int job, int attempt, AttemptState final_state);

  void complete_task(int job, int task, int winner_attempt);

  /// Marks `stage` started, requests its tasks' initial attempts, and fires
  /// the job's on_stage_start hook.
  void start_stage(int job, int stage);

  /// Starts every not-yet-started stage whose predecessor stages (the
  /// spec's resolved deps) have all completed — the generalized shuffle
  /// barrier. Stages are scanned in index (= topological) order.
  void maybe_start_stages(int job);

  void maybe_complete_job(int job);

  sim::Simulator& simulator_;
  sim::Cluster& cluster_;
  SpeculationPolicy& default_policy_;
  SchedulerConfig config_;
  Rng rng_;
  static constexpr std::uint32_t kRetired = ~std::uint32_t{0};
  /// Job records by slot. A retired job's slot is cleared and reused by a
  /// later submission, so the table holds at most the peak live jobs.
  std::vector<JobRecord> records_;
  /// Job index -> slot in records_, kRetired once the job is retired.
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::uint32_t> free_slots_;
  std::optional<ExponentialSampler> crash_sampler_;  ///< when failures on
  bool retire_ = false;
  RetireObserver on_retire_;
  sim::RunMetrics metrics_;
  std::unique_ptr<SchedulerApi> api_;
};

/// Facade through which policies inspect and act on jobs.
class SchedulerApi {
 public:
  explicit SchedulerApi(Scheduler& scheduler) : scheduler_(scheduler) {}

  double now() const;

  const JobSpec& spec(int job) const;
  const JobRecord& job(int job) const;

  /// True once the job completed; the only query valid after retirement.
  bool job_done(int job) const;

  // The three queries below return views over the job's record, not
  // copies (see TaskAttempts / IncompleteTasks in job.h): no allocation per
  // call, and a nested query never overwrites an outer one.

  /// Indices of tasks not yet completed (all stages), ascending.
  IncompleteTasks incomplete_tasks(int job) const;

  /// Incomplete tasks restricted to one stage, ascending.
  IncompleteTasks incomplete_stage_tasks(int job, int stage) const;

  /// Attempt ids of `task` that are waiting or running, ascending.
  TaskAttempts active_attempts(int job, int task) const;

  const AttemptRecord& attempt(int job, int attempt_id) const;

  /// Observes the attempt's progress score now (noise model applied).
  ProgressReport observe(int job, int attempt_id);

  /// Estimated absolute completion time using the configured estimator, or
  /// `kind` when given. Infinite when no estimate is possible.
  double estimate_completion(int job, int attempt_id);
  double estimate_completion(int job, int attempt_id, EstimatorKind kind);

  /// Launches an extra attempt of `task` processing [offset, 1]; returns the
  /// attempt id. Counts toward extra_attempts_launched.
  int launch_extra_attempt(int job, int task, double offset = 0.0);

  /// Kills one attempt (idempotent on ended attempts).
  void kill_attempt(int job, int attempt_id);

  /// Kills all active attempts of `task` except the one with the best
  /// observed progress (ties: lowest attempt id). No-op with < 2 active.
  void keep_best_progress(int job, int task);

  /// Kills all active attempts of `task` except the one with the smallest
  /// estimated completion time. Attempts with unknown estimates are treated
  /// as worst. No-op with < 2 active attempts.
  void keep_best_estimate(int job, int task);

  /// Eq. 31 resume offset for a detected straggler attempt.
  double resume_offset_for(int job, int attempt_id);

  /// Schedules `fn` after `delay` seconds of simulated time.
  void schedule_after(double delay, std::function<void()> fn);

  /// Cluster occupancy, used by Mantri's launch condition.
  bool cluster_has_idle_container() const;
  std::size_t cluster_pending_requests() const;

  /// Mean completion time (relative to submission) of completed tasks.
  /// Returns 0 when none have completed. Memoized per job until its next
  /// task completes. The fold adds every task's completion_time in index
  /// order and relies on an incomplete task's value being exactly +0.0
  /// (TaskRecord::completion_time).
  double mean_completed_task_time(int job);

 private:
  Scheduler& scheduler_;
};

}  // namespace chronos::mapreduce
