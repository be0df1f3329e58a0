// Per-run metrics: job deadline outcomes, machine time, and the aggregate
// PoCD / cost / net-utility summary the paper reports.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/summary.h"

namespace chronos::sim {

/// Outcome of one job in a simulation run.
struct JobOutcome {
  int job_id = 0;
  bool met_deadline = false;
  double completion_time = 0.0;   ///< relative to job submission
  double deadline = 0.0;
  double machine_time = 0.0;      ///< total VM seconds across all attempts
  double cost = 0.0;              ///< machine_time * price at submission
  long long r_used = 0;           ///< extra attempts chosen by the optimizer
  int attempts_launched = 0;
  int attempts_killed = 0;
  int attempts_failed = 0;  ///< crash-injected failures (retried)
};

/// Net utility as evaluated in §VII: lg(PoCD - r_min) - theta * mean cost.
/// Returns -infinity when PoCD <= r_min. The one place the formula lives;
/// RunMetrics::utility and the figure benches both evaluate it through
/// here.
double utility_from(double pocd, double mean_cost, double theta,
                    double r_min);

/// Aggregates outcomes into the metrics of §VII.
class RunMetrics {
 public:
  void record(const JobOutcome& outcome);

  /// Per-job outcome rows are opt-in, for callers that read outcomes():
  /// by default record() updates only the running aggregates, so a run
  /// holds O(1) metrics however many jobs it records. Every aggregate is
  /// the same with rows on or off. Must be set before the first record().
  void set_retain_outcomes(bool retain);

  std::uint64_t jobs() const { return jobs_; }
  /// The recorded rows; empty unless set_retain_outcomes(true).
  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

  /// Fraction of jobs that met their deadline; requires >= 1 job.
  double pocd() const;

  /// 95% CI half-width on pocd().
  double pocd_ci() const;

  /// Mean per-job cost (price-weighted machine time).
  double mean_cost() const;

  /// Mean per-job machine time.
  double mean_machine_time() const;

  /// Net utility as evaluated in §VII: lg(PoCD - r_min) - theta * mean cost.
  /// Returns -infinity when PoCD <= r_min.
  double utility(double theta, double r_min) const;

  /// Total attempts launched / killed / crash-failed across all jobs.
  std::uint64_t attempts_launched() const { return launched_; }
  std::uint64_t attempts_killed() const { return killed_; }
  std::uint64_t attempts_failed() const { return failed_; }

  /// Sum of r_used over all jobs.
  long long total_r_used() const { return total_r_; }

 private:
  std::vector<JobOutcome> outcomes_;
  bool retain_outcomes_ = false;
  std::uint64_t jobs_ = 0;
  std::uint64_t met_ = 0;
  long long total_r_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t killed_ = 0;
  std::uint64_t failed_ = 0;
  stats::RunningStats machine_time_;
  stats::RunningStats cost_;
};

}  // namespace chronos::sim
