#include "trace/workload.h"

#include <cmath>

#include "common/error.h"

namespace chronos::trace {

mapreduce::JobSpec WorkloadProfile::make_job(int job_id, int num_tasks) const {
  CHRONOS_EXPECTS(num_tasks >= 1, "make_job needs num_tasks >= 1");
  CHRONOS_EXPECTS(std::isfinite(t_min) && t_min > 0.0,
                  "profile t_min must be positive and finite");
  CHRONOS_EXPECTS(std::isfinite(beta) && beta > 1.0,
                  "profile beta must exceed 1 (finite mean execution time)");
  CHRONOS_EXPECTS(std::isfinite(deadline) && deadline > 0.0,
                  "profile deadline must be positive and finite");
  CHRONOS_EXPECTS(std::isfinite(jvm_mean) && jvm_mean >= 0.0 &&
                      std::isfinite(jvm_jitter) && jvm_jitter >= 0.0 &&
                      jvm_jitter <= jvm_mean + 1e-12,
                  "profile JVM model invalid (need 0 <= jitter <= mean)");
  mapreduce::JobSpec spec;
  spec.job_id = job_id;
  spec.stage(0).num_tasks = num_tasks;
  spec.stage(0).t_min = t_min;
  spec.stage(0).beta = beta;
  spec.deadline = deadline;
  spec.jvm_mean = jvm_mean;
  spec.jvm_jitter = jvm_jitter;
  return spec;
}

const std::vector<WorkloadProfile>& benchmark_suite() {
  // t_min / beta calibrated so the no-speculation PoCD of a 10-task job
  // lands in the 0.15 - 0.30 band the paper's Figure 2(a) shows, with the
  // I/O-bound Sort and SecondarySort (§VII-A) carrying heavier tails.
  static const std::vector<WorkloadProfile> kSuite = {
      {"Sort", /*t_min=*/30.0, /*beta=*/1.50,
       /*jvm_mean=*/2.5, /*jvm_jitter=*/1.5, /*deadline=*/100.0},
      {"SecondarySort", /*t_min=*/40.0, /*beta=*/1.45,
       /*jvm_mean=*/2.5, /*jvm_jitter=*/1.5, /*deadline=*/150.0},
      {"TeraSort", /*t_min=*/28.0, /*beta=*/1.40,
       /*jvm_mean=*/2.0, /*jvm_jitter=*/1.0, /*deadline=*/100.0},
      {"WordCount", /*t_min=*/45.0, /*beta=*/1.75,
       /*jvm_mean=*/2.0, /*jvm_jitter=*/1.0, /*deadline=*/150.0},
  };
  return kSuite;
}

const WorkloadProfile& benchmark(const std::string& name) {
  for (const auto& profile : benchmark_suite()) {
    if (profile.name == name) {
      return profile;
    }
  }
  CHRONOS_EXPECTS(false, "unknown benchmark: " + name);
}

}  // namespace chronos::trace
