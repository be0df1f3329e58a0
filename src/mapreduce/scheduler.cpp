#include "mapreduce/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"

namespace chronos::mapreduce {

Scheduler::Scheduler(sim::Simulator& simulator, sim::Cluster& cluster,
                     SpeculationPolicy& policy, SchedulerConfig config,
                     Rng rng)
    : simulator_(simulator),
      cluster_(cluster),
      default_policy_(policy),
      config_(config),
      rng_(rng),
      api_(std::make_unique<SchedulerApi>(*this)) {
  if (config_.failures.rate > 0.0) {
    crash_sampler_.emplace(config_.failures.rate);
  }
  metrics_.set_retain_outcomes(config_.retain_outcomes);
}

void Scheduler::retire_completed_jobs(RetireObserver on_retire) {
  CHRONOS_EXPECTS(num_jobs() == 0,
                  "retire_completed_jobs must precede the first submission");
  retire_ = true;
  on_retire_ = std::move(on_retire);
}

void Scheduler::compact_job(int job) {
  CHRONOS_EXPECTS(job_mut(job).done, "compact_job requires a completed job");
  std::uint32_t& slot = slot_of_[static_cast<std::size_t>(job)];
  records_[slot].clear_for_reuse();
  free_slots_.push_back(slot);
  slot = kRetired;
}

const AttemptRecord& Scheduler::attempt(int job, int attempt_id) const {
  const auto& record = this->job(job);
  CHRONOS_EXPECTS(
      attempt_id >= 0 &&
          attempt_id < static_cast<int>(record.attempts.size()),
      "attempt id out of range");
  return record.attempts[static_cast<std::size_t>(attempt_id)];
}

AttemptRecord& Scheduler::attempt_mut(int job, int attempt_id) {
  return const_cast<AttemptRecord&>(
      std::as_const(*this).attempt(job, attempt_id));
}

const JobRecord& Scheduler::job(int job) const {
  CHRONOS_EXPECTS(job >= 0 && job < num_jobs(), "job index out of range");
  const std::uint32_t slot = slot_of_[static_cast<std::size_t>(job)];
  CHRONOS_EXPECTS(slot != kRetired, "job was retired");
  return records_[slot];
}

JobRecord& Scheduler::job_mut(int job) {
  return const_cast<JobRecord&>(std::as_const(*this).job(job));
}

bool Scheduler::job_done(int job) const {
  CHRONOS_EXPECTS(job >= 0 && job < num_jobs(), "job index out of range");
  const std::uint32_t slot = slot_of_[static_cast<std::size_t>(job)];
  return slot == kRetired || records_[slot].done;
}

int Scheduler::submit(const JobSpec& spec) {
  return submit(spec, default_policy_);
}

int Scheduler::submit(const JobSpec& spec, SpeculationPolicy& policy) {
  spec.validate();
  const int job_index = num_jobs();
  // Capacity hint: every task gets its stage's initial attempts (one
  // finish/crash event each) plus as many speculative ones as the policy
  // can launch. Crash retries can still exceed this; both containers grow
  // geometrically.
  std::size_t event_hint = 0;
  for (int s = 0; s < spec.num_stages(); ++s) {
    const int copies = std::max(1, policy.initial_attempts(spec, s));
    const int extra = policy.max_extra_attempts(spec, s);
    event_hint += static_cast<std::size_t>(spec.stage(s).num_tasks) *
                  static_cast<std::size_t>(copies + extra);
  }
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_.push_back(slot);
  // A recycled record was cleared at retirement and kept its storage, so
  // the copy-assign and the fills below allocate only what outgrows it.
  JobRecord& record = records_[slot];
  record.spec = spec;
  record.policy = &policy;
  record.submit_time = simulator_.now();
  // Tasks are laid out stage-major: stage s owns
  // [first_task(s), first_task(s) + stage(s).num_tasks).
  record.tasks.resize(static_cast<std::size_t>(spec.total_tasks()));
  for (const StageSpec& st : spec.stages) {
    record.stage_states.push_back(
        StageState{.sampler = ParetoSampler(st.t_min, st.beta)});
  }
  record.attempts.reserve(event_hint);

  simulator_.reserve_events(event_hint);
  start_stage(job_index, 0);
  policy.on_job_start(job_index, *api_);
  return job_index;
}

void Scheduler::start_stage(int job, int stage) {
  auto& record = job_mut(job);
  StageState& state = record.stage_states[static_cast<std::size_t>(stage)];
  state.started = true;
  state.start_time = simulator_.now();
  SpeculationPolicy& policy = *record.policy;
  const int copies = std::max(1, policy.initial_attempts(record.spec, stage));
  const int first = record.spec.first_task(stage);
  const int last = first + record.spec.stage(stage).num_tasks;
  for (int task = first; task < last; ++task) {
    for (int copy = 0; copy < copies; ++copy) {
      launch_attempt(job, task, 0.0);
    }
    if (copies > 1) {
      // Only the first copy is the "original"; the rest are speculative.
      job_mut(job).tasks[static_cast<std::size_t>(task)]
          .extra_attempts_launched += copies - 1;
    }
  }
  policy.on_stage_start(job, stage, *api_);
}

void Scheduler::maybe_start_stages(int job) {
  auto& record = job_mut(job);
  for (int s = 1; s < record.spec.num_stages(); ++s) {
    if (record.stage_states[static_cast<std::size_t>(s)].started) {
      continue;
    }
    bool ready = true;
    for (const int dep : record.spec.resolved_deps(s)) {
      if (!record.stage_done(dep)) {
        ready = false;
        break;
      }
    }
    if (ready) {
      start_stage(job, s);
    }
  }
}

int Scheduler::launch_attempt(int job, int task, double offset) {
  auto& record = job_mut(job);
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  CHRONOS_EXPECTS(offset >= 0.0 && offset < 1.0,
                  "resume offset must lie in [0, 1)");
  const int attempt_id = static_cast<int>(record.attempts.size());
  AttemptRecord attempt;
  attempt.attempt_id = attempt_id;
  attempt.task_index = task;
  attempt.state = AttemptState::kWaiting;
  attempt.request_time = simulator_.now();
  attempt.start_offset = offset;
  record.attempts.push_back(attempt);
  auto& task_record = record.tasks[static_cast<std::size_t>(task)];
  if (task_record.last_attempt < 0) {
    task_record.first_attempt = attempt_id;
  } else {
    record.attempts[static_cast<std::size_t>(task_record.last_attempt)]
        .next_sibling = attempt_id;
  }
  task_record.last_attempt = attempt_id;
  ++record.attempts_launched;

  cluster_.request_container([this, job, attempt_id](int node) {
    on_container_granted(job, attempt_id, node);
  });
  return attempt_id;
}

void Scheduler::on_container_granted(int job, int attempt_id, int node) {
  if (slot_of_[static_cast<std::size_t>(job)] == kRetired) {
    // The attempt was killed while queued and the job has since been
    // retired; only the cluster's grant callback survived.
    cluster_.release_container(node);
    return;
  }
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  if (attempt.state != AttemptState::kWaiting) {
    // Killed while queued (or the task finished): return the container.
    cluster_.release_container(node);
    return;
  }
  attempt.state = AttemptState::kRunning;
  attempt.node = node;
  attempt.launch_time = simulator_.now();

  const auto& spec = record.spec;
  // Total execution time of a full-split attempt follows the stage's Pareto
  // law (§VII-A observed it is Pareto with beta < 2), scaled by the node's
  // slowdown.
  const ParetoSampler& stage =
      record.stage_states[static_cast<std::size_t>(
                              record.stage_of_task(attempt.task_index))]
          .sampler;
  const double total = stage(rng_) * cluster_.slowdown(node);
  double jvm = 0.0;
  if (spec.jvm_mean > 0.0) {
    jvm = std::max(0.0, rng_.uniform(spec.jvm_mean - spec.jvm_jitter,
                                     spec.jvm_mean + spec.jvm_jitter));
    // The JVM startup is part of the attempt's execution time; never let it
    // consume the entire sampled duration.
    jvm = std::min(jvm, 0.9 * total);
  }
  const double full_work = total - jvm;
  attempt.jvm_time = jvm;
  attempt.work_duration = (1.0 - attempt.start_offset) * full_work;

  // Failure injection: the attempt crashes before finishing when an
  // exponential crash clock fires first.
  if (crash_sampler_) {
    const double crash_after = (*crash_sampler_)(rng_);
    if (attempt.launch_time + crash_after < attempt.planned_finish()) {
      attempt.finish_event = simulator_.at(
          attempt.launch_time + crash_after,
          [this, job, attempt_id] { on_attempt_failed(job, attempt_id); });
      return;
    }
  }
  attempt.finish_event = simulator_.at(
      attempt.planned_finish(),
      [this, job, attempt_id] { on_attempt_finished(job, attempt_id); });
}

void Scheduler::on_attempt_failed(int job, int attempt_id) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "crash event fired for a non-running attempt");
  const int task = attempt.task_index;
  const double offset =
      config_.failures.lose_partial_output ? 0.0 : attempt.start_offset;
  end_attempt(job, attempt_id, AttemptState::kFailed);
  ++record.attempts_failed;
  // Hadoop retries failed attempts; keep the task alive with a fresh copy
  // (only when no sibling attempt is still working on it).
  if (record.tasks[static_cast<std::size_t>(task)].completed) {
    return;
  }
  if (record.active_attempts(task).empty()) {
    launch_attempt(job, task, offset);
  }
}

void Scheduler::on_attempt_finished(int job, int attempt_id) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "finish event fired for a non-running attempt");
  end_attempt(job, attempt_id, AttemptState::kFinished);
  complete_task(job, attempt.task_index, attempt_id);
}

void Scheduler::kill_attempt(int job, int attempt_id) {
  auto& attempt = attempt_mut(job, attempt_id);
  auto& record = job_mut(job);
  if (attempt.ended()) {
    return;
  }
  if (attempt.state == AttemptState::kRunning) {
    simulator_.cancel(attempt.finish_event);
    end_attempt(job, attempt_id, AttemptState::kKilled);
  } else {
    // Still waiting: mark killed; the pending grant callback will return the
    // container immediately.
    attempt.state = AttemptState::kKilled;
    attempt.end_time = simulator_.now();
  }
  ++record.attempts_killed;
}

void Scheduler::end_attempt(int job, int attempt_id,
                            AttemptState final_state) {
  auto& record = job_mut(job);
  auto& attempt = record.attempts[static_cast<std::size_t>(attempt_id)];
  CHRONOS_ENSURES(attempt.state == AttemptState::kRunning,
                  "end_attempt on a non-running attempt");
  attempt.state = final_state;
  attempt.end_time = simulator_.now();
  record.machine_time += attempt.end_time - attempt.launch_time;
  cluster_.release_container(attempt.node);
}

void Scheduler::complete_task(int job, int task, int winner_attempt) {
  auto& record = job_mut(job);
  auto& task_record = record.tasks[static_cast<std::size_t>(task)];
  if (task_record.completed) {
    return;  // a sibling attempt already finished
  }
  task_record.completed = true;
  task_record.winner_attempt = winner_attempt;
  task_record.completion_time = simulator_.now() - record.submit_time;
  ++record.tasks_completed;
  const int stage = record.stage_of_task(task);
  ++record.stage_states[static_cast<std::size_t>(stage)].tasks_completed;
  // A barrier can only clear when one of its predecessor stages finishes.
  const bool stage_finished = record.stage_done(stage);
  // Hadoop kills the remaining attempts of a completed task (the winner
  // has ended, so the active walk skips it).
  for (const int sibling : record.active_attempts(task)) {
    kill_attempt(job, sibling);
  }
  record.policy->on_task_completed(job, task, *api_);
  if (stage_finished) {
    maybe_start_stages(job);
  }
  maybe_complete_job(job);
}

void Scheduler::maybe_complete_job(int job) {
  auto& record = job_mut(job);
  if (record.done || !record.all_tasks_done()) {
    return;
  }
  record.done = true;
  record.completion_time = simulator_.now() - record.submit_time;

  sim::JobOutcome outcome;
  outcome.job_id = record.spec.job_id;
  outcome.met_deadline = record.completion_time <= record.spec.deadline;
  outcome.completion_time = record.completion_time;
  outcome.deadline = record.spec.deadline;
  outcome.machine_time = record.machine_time;
  outcome.cost = record.machine_time * record.spec.price;
  outcome.r_used = record.spec.stage(0).r;
  outcome.attempts_launched = record.attempts_launched;
  outcome.attempts_killed = record.attempts_killed;
  outcome.attempts_failed = record.attempts_failed;
  metrics_.record(outcome);

  record.policy->on_job_completed(job, *api_);
  if (retire_) {
    if (on_retire_) {
      on_retire_(job, outcome);
    }
    compact_job(job);
  }
}

// ---------------------------------------------------------------------------
// SchedulerApi

double SchedulerApi::now() const { return scheduler_.simulator_.now(); }

const JobSpec& SchedulerApi::spec(int job) const {
  return scheduler_.job(job).spec;
}

const JobRecord& SchedulerApi::job(int job) const {
  return scheduler_.job(job);
}

bool SchedulerApi::job_done(int job) const { return scheduler_.job_done(job); }

IncompleteTasks SchedulerApi::incomplete_tasks(int job) const {
  const auto& record = scheduler_.job(job);
  return record.incomplete_tasks(0, record.spec.total_tasks());
}

IncompleteTasks SchedulerApi::incomplete_stage_tasks(int job,
                                                     int stage) const {
  const auto& record = scheduler_.job(job);
  const int first = record.spec.first_task(stage);
  return record.incomplete_tasks(first,
                                 first + record.spec.stage(stage).num_tasks);
}

TaskAttempts SchedulerApi::active_attempts(int job, int task) const {
  const auto& record = scheduler_.job(job);
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  return record.active_attempts(task);
}

const AttemptRecord& SchedulerApi::attempt(int job, int attempt_id) const {
  return scheduler_.attempt(job, attempt_id);
}

ProgressReport SchedulerApi::observe(int job, int attempt_id) {
  auto& att = scheduler_.attempt_mut(job, attempt_id);
  const auto report = observe_progress(att, now(), scheduler_.config_.noise,
                                       scheduler_.rng_);
  if (report.available) {
    // The Chronos estimator anchors its startup correction at the first
    // report, AttemptRecord::first_report_time().
    att.reported = true;
  }
  return report;
}

double SchedulerApi::estimate_completion(int job, int attempt_id) {
  return estimate_completion(job, attempt_id,
                             scheduler_.config_.estimator);
}

double SchedulerApi::estimate_completion(int job, int attempt_id,
                                         EstimatorKind kind) {
  const auto report = observe(job, attempt_id);
  return estimate_completion_time(attempt(job, attempt_id), report, kind);
}

int SchedulerApi::launch_extra_attempt(int job, int task, double offset) {
  auto& record = scheduler_.job_mut(job);
  CHRONOS_EXPECTS(task >= 0 && task < record.spec.total_tasks(),
                  "task index out of range");
  ++record.tasks[static_cast<std::size_t>(task)].extra_attempts_launched;
  return scheduler_.launch_attempt(job, task, offset);
}

void SchedulerApi::kill_attempt(int job, int attempt_id) {
  scheduler_.kill_attempt(job, attempt_id);
}

void SchedulerApi::keep_best_progress(int job, int task) {
  const auto active = active_attempts(job, task);
  if (active.size() < 2) {
    return;
  }
  int best = active.front();
  double best_progress = -1.0;
  for (const int id : active) {
    const auto report = observe(job, id);
    const double progress = report.available ? report.progress : 0.0;
    if (progress > best_progress) {
      best_progress = progress;
      best = id;
    }
  }
  for (const int id : active) {
    if (id != best) {
      kill_attempt(job, id);
    }
  }
}

void SchedulerApi::keep_best_estimate(int job, int task) {
  const auto active = active_attempts(job, task);
  if (active.size() < 2) {
    return;
  }
  int best = active.front();
  double best_estimate = std::numeric_limits<double>::infinity();
  for (const int id : active) {
    const double estimate = estimate_completion(job, id);
    if (estimate < best_estimate) {
      best_estimate = estimate;
      best = id;
    }
  }
  for (const int id : active) {
    if (id != best) {
      kill_attempt(job, id);
    }
  }
}

double SchedulerApi::resume_offset_for(int job, int attempt_id) {
  const auto report = observe(job, attempt_id);
  const double progress = report.available ? report.progress : 0.0;
  if (!scheduler_.config_.anticipate_resume_offset) {
    // Ablation: resume exactly at the observed offset; the original's
    // progress during the new attempts' JVM startup is reprocessed.
    return std::clamp(progress, 0.0, 1.0);
  }
  return resume_offset(attempt(job, attempt_id), progress, now());
}

bool SchedulerApi::cluster_has_idle_container() const {
  return scheduler_.cluster_.has_idle_container();
}

std::size_t SchedulerApi::cluster_pending_requests() const {
  return scheduler_.cluster_.pending_requests();
}

double SchedulerApi::mean_completed_task_time(int job) {
  auto& record = scheduler_.job_mut(job);
  if (record.mean_task_time_at == record.tasks_completed) {
    return record.mean_task_time;
  }
  // No test on `completed`: an incomplete task adds exactly +0.0, which
  // leaves the sum's bits unchanged (see TaskRecord::completion_time).
  double sum = 0.0;
  for (const auto& task : record.tasks) {
    sum += task.completion_time;
  }
  record.mean_task_time =
      sum / static_cast<double>(record.tasks_completed);
  record.mean_task_time_at = record.tasks_completed;
  return record.mean_task_time;
}

}  // namespace chronos::mapreduce
