#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "strategies/policies.h"

namespace chronos::strategies {

using mapreduce::EstimatorKind;
using mapreduce::SchedulerApi;

namespace {

// Mantri's launch-check cost, counted: checks that walk the candidate list
// and the candidate entries they read.
const obs::Counter c_mantri_checks = obs::counter("strategies.mantri.checks");
const obs::Counter c_mantri_tasks_examined =
    obs::counter("strategies.mantri.tasks_examined");

}  // namespace

void HadoopSpeculation::on_task_completed(int job, int /*task*/,
                                          SchedulerApi& api) {
  if (api.job_done(job)) {
    return;
  }
  // Hadoop only speculates after at least one task of the job has finished;
  // the first completion arms the periodic checker.
  api_ = &api;
  if (!monitoring_.insert(job).second) {
    return;
  }
  api.schedule_after(options_.check_period,
                     [this, job] { check(job, *api_); });
}

void HadoopSpeculation::check(int job, SchedulerApi& api) {
  if (api.job_done(job)) {
    monitoring_.erase(job);
    return;
  }
  const auto& record = api.job(job);
  const double submit = record.submit_time;

  // Hadoop speculates each stage separately: a stage becomes eligible once
  // at least one of its own tasks has finished, and estimates are compared
  // against that stage's average completion time.
  const auto stages = static_cast<std::size_t>(record.spec.num_stages());
  stage_sum_.assign(stages, 0.0);
  stage_count_.assign(stages, 0);
  for (int t = 0; t < record.spec.total_tasks(); ++t) {
    const auto& task_record = record.tasks[static_cast<std::size_t>(t)];
    if (task_record.completed) {
      const auto stage = static_cast<std::size_t>(record.stage_of_task(t));
      stage_sum_[stage] += task_record.completion_time;
      ++stage_count_[stage];
    }
  }

  // Find the running task whose estimated completion exceeds the average
  // completion time of finished tasks by the largest amount; speculate it
  // (one extra attempt per task, like default Hadoop).
  int worst_task = -1;
  double worst_gap = 0.0;
  for (const int task : api.incomplete_tasks(job)) {
    if (record.tasks[static_cast<std::size_t>(task)]
            .extra_attempts_launched > 0) {
      continue;  // already speculated
    }
    const auto stage = static_cast<std::size_t>(record.stage_of_task(task));
    if (stage_count_[stage] == 0) {
      continue;  // no finished task in this stage yet
    }
    const double average =
        stage_sum_[stage] / static_cast<double>(stage_count_[stage]);
    const auto active = api.active_attempts(job, task);
    if (active.empty()) {
      continue;
    }
    const double estimate = api.estimate_completion(
        job, active.front(), EstimatorKind::kHadoopNaive);
    if (!std::isfinite(estimate)) {
      continue;  // no progress yet; Hadoop has nothing to extrapolate
    }
    const double gap = (estimate - submit) - average;
    if (gap > worst_gap) {
      worst_gap = gap;
      worst_task = task;
    }
  }
  if (worst_task >= 0) {
    api.launch_extra_attempt(job, worst_task, 0.0);
  }
  api.schedule_after(options_.check_period,
                     [this, job] { check(job, *api_); });
}

void Mantri::on_job_start(int job, SchedulerApi& api) {
  api_ = &api;
  auto& candidates = candidates_[job];
  candidates.resize(static_cast<std::size_t>(api.spec(job).total_tasks()));
  std::iota(candidates.begin(), candidates.end(), 0);
  api.schedule_after(options_.check_period,
                     [this, job] { check(job, *api_); });
  api.schedule_after(options_.mantri_prune_period,
                     [this, job] { prune(job, *api_); });
}

void Mantri::on_job_completed(int job, SchedulerApi& /*api*/) {
  candidates_.erase(job);
}

void Mantri::prune(int job, SchedulerApi& api) {
  if (api.job_done(job)) {
    return;
  }
  // "Leaves one attempt with the best progress running": keep the attempt
  // with the highest reported progress score; unreported (still-starting)
  // attempts are spared so fresh copies get a chance. Runs on a slower
  // cadence than the launch check: duplicates accrue machine time until the
  // next prune — Mantri's aggressive launch-and-kill cycle is what makes it
  // expensive in §VII-B.
  for (const int task : api.incomplete_tasks(job)) {
    const auto active = api.active_attempts(job, task);
    if (active.size() < 2) {
      continue;
    }
    int best = -1;
    double best_progress = -1.0;
    reported_.clear();
    for (const int id : active) {
      // Spare duplicates younger than half a prune period: they have not
      // had a fair chance to overtake yet.
      if (api.now() - api.attempt(job, id).launch_time <
          0.5 * options_.mantri_prune_period) {
        continue;
      }
      const auto report = api.observe(job, id);
      if (!report.available) {
        continue;
      }
      reported_.push_back(id);
      if (report.progress > best_progress) {
        best_progress = report.progress;
        best = id;
      }
    }
    if (reported_.size() < 2) {
      continue;
    }
    for (const int id : reported_) {
      if (id != best) {
        api.kill_attempt(job, id);
      }
    }
  }
  api.schedule_after(options_.mantri_prune_period,
                     [this, job] { prune(job, *api_); });
}

void Mantri::check(int job, SchedulerApi& api) {
  if (api.job_done(job)) {
    return;  // on_job_completed already freed the candidate list
  }
  const auto& record = api.job(job);
  const double now = api.now();

  // Launch: Mantri restarts outliers only when the cluster has spare
  // capacity and nothing queues for it, duplicating tasks whose remaining
  // time exceeds the average task time by `mantri_threshold`, up to
  // `mantri_max_extra` extra attempts per task. The average is folded only
  // once the cluster has room for a duplicate. Inside the walk only a
  // launch can take that room, so capacity is re-read after each launch.
  const auto has_spare_capacity = [&api] {
    return api.cluster_has_idle_container() &&
           api.cluster_pending_requests() == 0;
  };
  bool spare = has_spare_capacity();
  const double average = spare ? api.mean_completed_task_time(job) : 0.0;
  if (average > 0.0) {
    auto& candidates = candidates_.find(job)->second;
    std::size_t kept = 0;
    std::size_t next = 0;
    for (; spare && next < candidates.size(); ++next) {
      const int task = candidates[next];
      const auto& task_record = record.tasks[static_cast<std::size_t>(task)];
      if (task_record.completed ||
          task_record.extra_attempts_launched >= options_.mantri_max_extra) {
        continue;  // never a candidate again
      }
      candidates[kept++] = task;
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
        // Nothing has reported yet; fall back to elapsed-time heuristic:
        // the task has been running since its stage started, with no
        // progress.
        best_remaining =
            now - record.stage_states[static_cast<std::size_t>(
                      record.stage_of_task(task))]
                .start_time;
      }
      if (best_remaining > average + options_.mantri_threshold) {
        api.launch_extra_attempt(job, task, 0.0);
        spare = has_spare_capacity();
      }
    }
    c_mantri_checks.add();
    c_mantri_tasks_examined.add(next);
    // Close the gap the dropped entries left; when capacity ran out early,
    // the unvisited tail [next, end) is kept as it was.
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(kept),
                     candidates.begin() + static_cast<std::ptrdiff_t>(next));
  }
  api.schedule_after(options_.check_period,
                     [this, job] { check(job, *api_); });
}

}  // namespace chronos::strategies
