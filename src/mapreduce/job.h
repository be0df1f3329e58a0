// Job / task / attempt data model for the simulated MapReduce engine.
//
// Mirrors the Hadoop YARN entities of §VI: an application master creates
// tasks for a submitted job, asks the cluster (RM) for containers, launches
// attempts in them (paying a JVM startup delay), monitors progress scores,
// and kills or speculates attempts per the active strategy.
//
// Jobs are staged DAGs: a JobSpec carries one StageSpec per stage (the
// paper's §III analysis is explicitly per-stage — "PoCD for map and reduce
// stages can be optimized separately"), and a stage launches only when all
// of its predecessor stages have completed. The default dependency shape is
// the barrier chain (stage s waits on stage s-1), which reproduces the
// classic map -> shuffle -> reduce semantics; explicit dependency lists
// enable fan-in / fan-out pipelines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"

namespace chronos::mapreduce {

class SpeculationPolicy;

/// One stage of a job: a bag of identical tasks under one Pareto duration
/// law, with its own speculation plan. Timer fields are relative to the
/// stage's start (for stage 0 that is the job submission).
struct StageSpec {
  int num_tasks = 1;
  double t_min = 1.0;       ///< Pareto scale of attempt execution time
  double beta = 1.5;        ///< Pareto tail index of attempt execution time
  double tau_est = 0.0;     ///< straggler-detection time (Chronos strategies)
  double tau_kill = 0.0;    ///< kill time (Chronos strategies)
  long long r = 0;          ///< extra attempts chosen by the optimizer

  /// Predecessor stage indices. Empty = the default barrier chain: stage 0
  /// is a root, stage s depends on stage s-1 (today's shuffle barrier).
  /// Explicit lists enable fan-in / fan-out DAGs; every entry must name an
  /// earlier stage, so stage order is a topological order by construction.
  std::vector<int> deps;

  friend bool operator==(const StageSpec&, const StageSpec&) = default;
};

/// A stage's resolved predecessors (JobSpec::resolved_deps) without a copy:
/// a view of an explicit deps list, or the barrier chain's one predecessor
/// held inline. Iterates like a span of ints.
class StageDeps {
 public:
  StageDeps() = default;
  explicit StageDeps(std::span<const int> list) : list_(list) {}
  explicit StageDeps(int chain) : chain_(chain), chained_(true) {}

  const int* begin() const { return chained_ ? &chain_ : list_.data(); }
  const int* end() const { return begin() + size(); }
  std::size_t size() const { return chained_ ? 1 : list_.size(); }

 private:
  std::span<const int> list_;
  int chain_ = 0;
  bool chained_ = false;
};

/// Static description of one job, produced by the workload/trace generators.
struct JobSpec {
  int job_id = 0;
  double deadline = 0.0;    ///< whole-DAG deadline, relative to submission
  double price = 1.0;       ///< VM price per machine-second at submission
  double jvm_mean = 0.0;    ///< mean JVM startup delay (0 = instant)
  double jvm_jitter = 0.0;  ///< +- uniform jitter around jvm_mean

  /// The stage vector — the single source of truth for the job's shape.
  /// Defaults to one map stage; every consumer resolves stages through the
  /// accessors below (there is no parallel scalar view to fall out of sync).
  std::vector<StageSpec> stages = {StageSpec{}};

  int num_stages() const { return static_cast<int>(stages.size()); }

  StageSpec& stage(int s) { return stages[static_cast<std::size_t>(s)]; }
  const StageSpec& stage(int s) const {
    return stages[static_cast<std::size_t>(s)];
  }

  int total_tasks() const {
    int total = 0;
    for (const StageSpec& st : stages) {
      total += st.num_tasks;
    }
    return total;
  }

  /// Task-index offset of stage `s`: tasks are laid out stage-major, so
  /// stage s owns [first_task(s), first_task(s) + stage(s).num_tasks).
  int first_task(int s) const {
    int offset = 0;
    for (int i = 0; i < s; ++i) {
      offset += stage(i).num_tasks;
    }
    return offset;
  }

  /// Stage that owns task index `task`.
  int stage_of_task(int task) const {
    int s = 0;
    while (task >= stage(s).num_tasks) {
      task -= stage(s).num_tasks;
      ++s;
    }
    return s;
  }

  /// The stage's predecessors with the barrier-chain default applied:
  /// explicit deps when given, otherwise {s - 1} (and {} for stage 0).
  /// A view, not a copy: valid while the spec lives unchanged.
  StageDeps resolved_deps(int s) const {
    if (!stage(s).deps.empty()) {
      return StageDeps(stage(s).deps);
    }
    return s == 0 ? StageDeps() : StageDeps(s - 1);
  }

  void validate() const;
};

enum class AttemptState {
  kWaiting,   ///< queued for a container
  kRunning,   ///< granted; executing (JVM startup included)
  kFinished,  ///< processed its assigned byte range
  kKilled,    ///< killed by the strategy or by task completion
  kFailed,    ///< crashed (node/VM failure); the scheduler retries the task
};

/// One execution attempt of a task.
struct AttemptRecord {
  int attempt_id = 0;       ///< index within the job's attempt table
  int task_index = 0;
  AttemptState state = AttemptState::kWaiting;
  int node = -1;

  double request_time = 0.0;   ///< when the container was requested
  double launch_time = 0.0;    ///< when the container was granted
  double jvm_time = 0.0;       ///< startup delay before any progress
  double work_duration = 0.0;  ///< time to process the assigned range
  double start_offset = 0.0;   ///< fraction of the split already processed
  double end_time = 0.0;       ///< finish or kill time (valid once ended)

  /// Next attempt of the same task (the task's sibling list), -1 at the
  /// tail. Sits before `reported` so it fills padding: the record stays
  /// 88 bytes.
  int next_sibling = -1;

  /// Set by the first observation that carries progress; the Chronos
  /// estimator (Eq. 30) needs that first report before it estimates.
  bool reported = false;

  sim::EventId finish_event;

  /// True fraction of the task's split processed at time `now`
  /// (start_offset until the JVM is up, then linear to 1).
  double true_progress(double now) const;

  /// t_FP of Eq. 30: the first progress report arrives as soon as the JVM
  /// is up, carrying the attempt's start offset as its progress.
  double first_report_time() const { return launch_time + jvm_time; }

  /// Absolute finish time (launch + jvm + work); valid once running.
  double planned_finish() const {
    return launch_time + jvm_time + work_duration;
  }

  bool running() const { return state == AttemptState::kRunning; }
  bool ended() const {
    return state == AttemptState::kFinished ||
           state == AttemptState::kKilled || state == AttemptState::kFailed;
  }
};

/// The waiting or running attempts of one task in ascending attempt id,
/// walked through the task's intrusive sibling list, skipping ended
/// attempts. Nothing is copied: every step reads the job's attempt table,
/// so a walk stays valid while attempts are killed or launched (an attempt
/// launched for the same task mid-walk is visited). It points at the
/// JobRecord's attempt table, so it is valid until the record moves or is
/// cleared: the scheduler's next submit() or the job's retirement, neither
/// of which a policy hook or timer triggers.
class TaskAttempts {
 public:
  class iterator {
   public:
    iterator() = default;
    iterator(const std::vector<AttemptRecord>* attempts, int id)
        : attempts_(attempts), id_(id) {
      skip_ended();
    }
    int operator*() const { return id_; }
    iterator& operator++() {
      id_ = at(id_).next_sibling;
      skip_ended();
      return *this;
    }
    bool operator==(const iterator& other) const { return id_ == other.id_; }

   private:
    const AttemptRecord& at(int id) const {
      return (*attempts_)[static_cast<std::size_t>(id)];
    }
    void skip_ended() {
      while (id_ >= 0 && at(id_).ended()) {
        id_ = at(id_).next_sibling;
      }
    }
    const std::vector<AttemptRecord>* attempts_ = nullptr;
    int id_ = -1;
  };

  TaskAttempts(const std::vector<AttemptRecord>& attempts, int first)
      : attempts_(&attempts), first_(first) {}

  iterator begin() const { return {attempts_, first_}; }
  iterator end() const { return {}; }
  bool empty() const { return begin() == end(); }
  /// Lowest attempt id in the walk. Requires !empty().
  int front() const { return *begin(); }
  /// Length of the walk (counts by walking it).
  std::size_t size() const {
    std::size_t n = 0;
    for (auto it = begin(); it != end(); ++it) {
      ++n;
    }
    return n;
  }

 private:
  const std::vector<AttemptRecord>* attempts_;
  int first_;
};

/// One task (one input split).
struct TaskRecord {
  /// Head and tail of the task's sibling list (AttemptRecord::next_sibling),
  /// -1 before the first launch. Attempts append at the tail, so the list
  /// is in ascending attempt id.
  int first_attempt = -1;
  int last_attempt = -1;
  bool completed = false;
  /// Relative to job submission; exactly +0.0 until the task completes,
  /// and never -0.0 after (now - submit_time with now >= submit_time).
  /// SchedulerApi::mean_completed_task_time sums it over every task
  /// without testing `completed`, which is exact only under this
  /// invariant: set it nowhere but at completion.
  double completion_time = 0.0;
  int winner_attempt = -1;
  int extra_attempts_launched = 0;  ///< speculative copies beyond the first
};

/// Indices of the not-yet-completed tasks in [first, last), ascending.
/// Nothing is copied: every step reads the job's task table, which is sized
/// once at submission, so the view is valid until the job is retired.
class IncompleteTasks {
 public:
  class iterator {
   public:
    iterator(const TaskRecord* tasks, int task, int last)
        : tasks_(tasks), task_(task), last_(last) {
      skip_completed();
    }
    int operator*() const { return task_; }
    iterator& operator++() {
      ++task_;
      skip_completed();
      return *this;
    }
    bool operator==(const iterator& other) const {
      return task_ == other.task_;
    }

   private:
    void skip_completed() {
      while (task_ < last_ && tasks_[task_].completed) {
        ++task_;
      }
    }
    const TaskRecord* tasks_;
    int task_;
    int last_;
  };

  IncompleteTasks(const TaskRecord* tasks, int first, int last)
      : tasks_(tasks), first_(first), last_(last) {}

  iterator begin() const { return {tasks_, first_, last_}; }
  iterator end() const { return {tasks_, last_, last_}; }

 private:
  const TaskRecord* tasks_;
  int first_;
  int last_;
};

/// Runtime state of one stage of a submitted job.
struct StageState {
  /// Pre-validated duration sampler, built once at submission so the
  /// per-attempt hot path skips parameter validation and exponent
  /// derivation (draws stay bit-identical to Rng::pareto).
  ParetoSampler sampler;
  double start_time = 0.0;  ///< absolute; valid once started
  int tasks_completed = 0;
  bool started = false;
};

/// Runtime state of a submitted job. The scheduler recycles records: a
/// retired job's record is cleared (clear_for_reuse) and the next
/// submission copy-assigns into the storage it kept.
struct JobRecord {
  JobSpec spec;
  /// The policy the job was submitted under; every hook for the job goes
  /// to it.
  SpeculationPolicy* policy = nullptr;
  double submit_time = 0.0;
  std::vector<TaskRecord> tasks;  ///< stage-major: stage 0's tasks first
  std::vector<AttemptRecord> attempts;
  int tasks_completed = 0;
  bool done = false;

  /// Per-stage runtime state, parallel to spec.stages.
  std::vector<StageState> stage_states;

  double completion_time = 0.0;  ///< relative to submission
  double machine_time = 0.0;     ///< accrued VM seconds
  int attempts_launched = 0;
  int attempts_killed = 0;
  int attempts_failed = 0;  ///< crashes injected by the failure model

  /// SchedulerApi::mean_completed_task_time's memo: the mean as of
  /// `tasks_completed == mean_task_time_at`. Completed tasks never change,
  /// so the memo equals a fresh fold until the next task completes; with
  /// none completed the mean is 0.
  double mean_task_time = 0.0;
  int mean_task_time_at = 0;

  bool all_tasks_done() const {
    return tasks_completed == static_cast<int>(tasks.size());
  }

  /// The waiting or running attempts of `task`, ascending.
  TaskAttempts active_attempts(int task) const {
    return {attempts, tasks[static_cast<std::size_t>(task)].first_attempt};
  }
  /// Incomplete tasks among [first, last), ascending.
  IncompleteTasks incomplete_tasks(int first, int last) const {
    return {tasks.data(), first, last};
  }

  /// Stage that owns `task` (delegates to the spec's stage-major layout).
  int stage_of_task(int task) const { return spec.stage_of_task(task); }

  bool stage_done(int s) const {
    return stage_states[static_cast<std::size_t>(s)].tasks_completed ==
           spec.stage(s).num_tasks;
  }

  /// Returns every field to its default for a later submission, keeping
  /// the storage of spec.stages (the StageSpec elements themselves, so
  /// their deps lists keep theirs too; their values are stale until the
  /// next copy-assign), tasks and stage_states. The attempt table is
  /// released: the largest a slot ever held would otherwise stay pinned.
  void clear_for_reuse();
};

}  // namespace chronos::mapreduce
