// Benchmark workload profiles for the testbed experiment (§VII-A).
//
// The paper drives its EC2 testbed with the map phases of four classic
// benchmarks. What the evaluation consumes from each benchmark is its task
// duration statistics (Pareto t_min / beta fitted on the noisy testbed), its
// JVM startup overhead, and its deadline class (100 s for Sort/TeraSort,
// 150 s for SecondarySort/WordCount). These profiles encode exactly that.
#pragma once

#include <string>
#include <vector>

#include "mapreduce/job.h"

namespace chronos::trace {

struct WorkloadProfile {
  std::string name;
  double t_min = 30.0;     ///< Pareto scale of task execution time (s)
  double beta = 1.5;       ///< Pareto tail index (< 2 on the noisy testbed)
  double jvm_mean = 2.0;   ///< mean JVM startup (s)
  double jvm_jitter = 1.5; ///< +- uniform jitter on JVM startup (s)
  double deadline = 100.0; ///< per-job deadline (s)

  /// Builds a JobSpec for one job of this benchmark. Strategy fields
  /// (r, tau_est, tau_kill, price) are filled by the planner.
  mapreduce::JobSpec make_job(int job_id, int num_tasks) const;
};

/// The four benchmarks of Figure 2, with the paper's deadline assignment
/// (100 s for Sort and TeraSort, 150 s for SecondarySort and WordCount).
const std::vector<WorkloadProfile>& benchmark_suite();

/// Profile by name ("Sort", "SecondarySort", "TeraSort", "WordCount");
/// throws PreconditionError for unknown names.
const WorkloadProfile& benchmark(const std::string& name);

}  // namespace chronos::trace
