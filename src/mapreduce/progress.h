// Progress observation and completion-time estimation (§VI-B).
//
// Two estimators are modelled:
//  - kHadoopNaive: Hadoop's default — assumes the attempt started processing
//    the moment it launched, dividing elapsed wall time by the progress
//    score. Systematically overestimates remaining time while the JVM is
//    starting up, producing false-positive stragglers.
//  - kChronos: the paper's estimator (Eq. 30) — measures the JVM startup as
//    the gap to the first progress report and extrapolates processing speed
//    from the (first report, now) progress delta.
//
// Observed progress carries measurement noise that shrinks as the attempt
// accumulates history; this reproduces the estimation-accuracy-vs-timeliness
// tradeoff of Tables I/II (early detection = noisy estimates = aggressive
// speculation).
#pragma once

#include "common/rng.h"
#include "mapreduce/job.h"

namespace chronos::mapreduce {

enum class EstimatorKind { kHadoopNaive, kChronos };

/// Multiplicative observation-noise model for progress scores.
struct ProgressNoiseConfig {
  double bias0 = 0.0;   ///< initial relative under-report of progress (>= 0)
  double sigma0 = 0.0;  ///< initial relative noise std-dev (>= 0)
  double decay = 20.0;  ///< seconds of history halving bias/variance (> 0)

  static ProgressNoiseConfig none() { return {0.0, 0.0, 20.0}; }
  /// Defaults calibrated to produce the Table I/II tradeoffs: early
  /// observations under-report progress strongly (JVM ramp-up), so early
  /// detection over-flags stragglers — high PoCD, high cost.
  static ProgressNoiseConfig realistic() { return {0.35, 0.25, 15.0}; }
};

/// A progress observation of a running attempt, as the AM would see it.
struct ProgressReport {
  bool available = false;   ///< false before the first report (JVM startup)
  double progress = 0.0;    ///< observed progress score in [0, 1]
  double time = 0.0;        ///< observation time
};

/// Observes the progress score of `attempt` at time `now`, applying the
/// noise model. Returns available == false while the JVM is starting.
ProgressReport observe_progress(const AttemptRecord& attempt, double now,
                                const ProgressNoiseConfig& noise, Rng& rng);

/// Estimates the absolute completion time of a running attempt at `now`.
/// `report` must be an observation taken at `now`; the Chronos estimator
/// needs `attempt.reported` and anchors Eq. 30 at its first_report_time().
/// Returns +infinity ("will not finish") when no estimate is possible.
double estimate_completion_time(const AttemptRecord& attempt,
                                const ProgressReport& report,
                                EstimatorKind kind);

/// Eq. 31: the byte offset (as a fraction of the split) from which resumed
/// attempts should start, anticipating the bytes the original attempt will
/// process while the new attempts' JVMs start. `observed_progress` is the
/// original attempt's progress score at detection time `now`.
double resume_offset(const AttemptRecord& attempt, double observed_progress,
                     double now);

}  // namespace chronos::mapreduce
