#include "mapreduce/job.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "common/error.h"

namespace chronos::mapreduce {

void JobSpec::validate() const {
  // Every double must be finite: the range checks below reject NaN but not
  // infinity, which would run to an infinite completion or machine time.
  CHRONOS_EXPECTS(std::isfinite(deadline) && deadline > 0.0,
                  "JobSpec: deadline must be positive and finite");
  CHRONOS_EXPECTS(std::isfinite(price) && price >= 0.0,
                  "JobSpec: price must be non-negative and finite");
  CHRONOS_EXPECTS(std::isfinite(jvm_mean) && jvm_mean >= 0.0,
                  "JobSpec: jvm_mean must be non-negative and finite");
  CHRONOS_EXPECTS(jvm_jitter >= 0.0 && jvm_jitter <= jvm_mean + 1e-12,
                  "JobSpec: jvm_jitter must lie in [0, jvm_mean]");
  CHRONOS_EXPECTS(!stages.empty(), "JobSpec: job needs at least one stage");
  for (int s = 0; s < num_stages(); ++s) {
    const StageSpec& st = stage(s);
    CHRONOS_EXPECTS(st.num_tasks >= 1, "StageSpec: num_tasks must be >= 1");
    CHRONOS_EXPECTS(std::isfinite(st.t_min) && st.t_min > 0.0,
                    "StageSpec: t_min must be positive and finite");
    CHRONOS_EXPECTS(std::isfinite(st.beta) && st.beta > 0.0,
                    "StageSpec: beta must be positive and finite");
    CHRONOS_EXPECTS(std::isfinite(st.tau_est) && st.tau_est >= 0.0,
                    "StageSpec: tau_est must be non-negative and finite");
    CHRONOS_EXPECTS(std::isfinite(st.tau_kill) && st.tau_kill >= st.tau_est,
                    "StageSpec: tau_kill must be finite and >= tau_est");
    CHRONOS_EXPECTS(st.r >= 0, "StageSpec: r must be non-negative");
    // Deps must reference strictly earlier stages (so the stage index order
    // is a topological order by construction) and must not repeat.
    for (std::size_t i = 0; i < st.deps.size(); ++i) {
      CHRONOS_EXPECTS(st.deps[i] >= 0 && st.deps[i] < s,
                      "StageSpec: deps must reference earlier stages");
      for (std::size_t j = 0; j < i; ++j) {
        CHRONOS_EXPECTS(st.deps[j] != st.deps[i],
                        "StageSpec: deps must not repeat");
      }
    }
  }
}

void JobRecord::clear_for_reuse() {
  // Every field not named here takes its default. Naming the stage list
  // also keeps a fresh JobSpec from allocating its default StageSpec.
  JobRecord cleared{.spec = {.stages = std::move(spec.stages)},
                    .tasks = std::move(tasks),
                    .attempts = {},
                    .stage_states = std::move(stage_states)};
  cleared.tasks.clear();
  cleared.stage_states.clear();
  *this = std::move(cleared);
}

double AttemptRecord::true_progress(double now) const {
  if (state == AttemptState::kWaiting || now <= launch_time + jvm_time) {
    return start_offset;
  }
  const double elapsed_work = now - launch_time - jvm_time;
  if (work_duration <= 0.0) {
    return 1.0;
  }
  const double fraction = std::min(1.0, elapsed_work / work_duration);
  return start_offset + (1.0 - start_offset) * fraction;
}

}  // namespace chronos::mapreduce
