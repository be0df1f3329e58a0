#include <cmath>

#include "strategies/policies.h"

namespace chronos::strategies {

using mapreduce::SchedulerApi;

namespace {

/// True when the attempt's estimated completion (job-relative) misses the
/// job deadline; unknown estimates count as stragglers (no progress at
/// detection time is the worst signal available).
bool is_straggler(SchedulerApi& api, int job, int attempt_id) {
  const double estimate = api.estimate_completion(job, attempt_id);
  if (!std::isfinite(estimate)) {
    return true;
  }
  const auto& record = api.job(job);
  return estimate - record.submit_time > record.spec.deadline;
}

}  // namespace

void Clone::on_stage_start(int job, int stage, SchedulerApi& api) {
  // All r+1 copies were launched by the scheduler (initial_attempts); at
  // tau_kill keep the copy with the best progress score (§III, Fig. 1a).
  // The kill timer runs relative to the stage's start.
  api.schedule_after(api.spec(job).stage(stage).tau_kill,
                     [job, stage, &api] {
                       if (api.job_done(job)) {
                         return;
                       }
                       for (const int task :
                            api.incomplete_stage_tasks(job, stage)) {
                         api.keep_best_progress(job, task);
                       }
                     });
}

void StragglerSpeculation::on_stage_start(int job, int stage,
                                          SchedulerApi& api) {
  api_ = &api;
  const auto& st = api.spec(job).stage(stage);
  api.schedule_after(st.tau_est,
                     [this, job, stage] { detect(job, stage, *api_); });
  api.schedule_after(st.tau_kill,
                     [this, job, stage] { reap(job, stage, *api_); });
}

void StragglerSpeculation::detect(int job, int stage, SchedulerApi& api) {
  if (api.job_done(job)) {
    return;
  }
  const long long r = api.spec(job).stage(stage).r;
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    const auto active = api.active_attempts(job, task);
    if (active.empty()) {
      continue;
    }
    // Attempts are listed in launch order, so the first is the original.
    const int original = active.front();
    if (is_straggler(api, job, original)) {
      speculate(job, task, original, r, api);
    }
  }
}

void StragglerSpeculation::reap(int job, int stage, SchedulerApi& api) {
  if (api.job_done(job)) {
    return;
  }
  for (const int task : api.incomplete_stage_tasks(job, stage)) {
    api.keep_best_estimate(job, task);
  }
}

void SpeculativeRestart::speculate(int job, int task, int /*original*/,
                                   long long r, SchedulerApi& api) {
  // Launch r fresh copies that restart from byte 0; the original keeps
  // running (Fig. 1b).
  for (long long k = 0; k < r; ++k) {
    api.launch_extra_attempt(job, task, 0.0);
  }
}

void SpeculativeResume::speculate(int job, int task, int original,
                                  long long r, SchedulerApi& api) {
  // Work-preserving speculation (Fig. 1c): kill the straggler and launch
  // r+1 copies that resume from the anticipated byte offset (Eq. 31),
  // skipping the bytes the original would process during JVM startup.
  const double offset = api.resume_offset_for(job, original);
  api.kill_attempt(job, original);
  if (offset >= 1.0) {
    // The original would finish during the handover; nothing to resume.
    // Launch one full copy to guarantee task completion.
    api.launch_extra_attempt(job, task, 0.0);
    return;
  }
  for (long long k = 0; k < r + 1; ++k) {
    api.launch_extra_attempt(job, task, offset);
  }
}

}  // namespace chronos::strategies
