#include "mapreduce/progress.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace chronos::mapreduce {

ProgressReport observe_progress(const AttemptRecord& attempt, double now,
                                const ProgressNoiseConfig& noise, Rng& rng) {
  CHRONOS_EXPECTS(noise.bias0 >= 0.0 && noise.sigma0 >= 0.0,
                  "noise magnitudes must be non-negative");
  CHRONOS_EXPECTS(noise.decay > 0.0, "noise decay must be positive");
  ProgressReport report;
  report.time = now;
  if (!attempt.running() && !attempt.ended()) {
    return report;  // still waiting for a container
  }
  const double ready = attempt.launch_time + attempt.jvm_time;
  if (now < ready) {
    return report;  // JVM still starting: no progress report yet
  }
  const double truth = attempt.true_progress(now);
  // Noise decays as the attempt accumulates processing history; early
  // observations under-report progress (rate ramp-up), which makes naive
  // extrapolation overestimate completion time — the effect §VII-B reports.
  const double history = now - ready;
  const double shrink = noise.decay / (noise.decay + history);
  const double bias = noise.bias0 * shrink;
  const double sigma = noise.sigma0 * std::sqrt(shrink);
  const double factor = (1.0 - bias) * (1.0 + sigma * rng.normal());
  report.available = true;
  report.progress = std::clamp(truth * factor, 1e-6, 1.0);
  return report;
}

namespace {

/// Sentinel returned when an estimator cannot produce a finite estimate
/// (no progress yet); treated as "will not finish".
double unknown_completion_time() {
  return std::numeric_limits<double>::infinity();
}

/// Progress within the attempt's own assigned work range, in [0, 1].
double within_work(double progress_score, double start_offset) {
  const double denom = 1.0 - start_offset;
  if (denom <= 0.0) {
    return 1.0;
  }
  return std::clamp((progress_score - start_offset) / denom, 0.0, 1.0);
}

}  // namespace

double estimate_completion_time(const AttemptRecord& attempt,
                                const ProgressReport& report,
                                EstimatorKind kind) {
  if (!report.available) {
    return unknown_completion_time();
  }
  const double now = report.time;
  const double cp = within_work(report.progress, attempt.start_offset);
  if (cp <= 0.0) {
    return unknown_completion_time();
  }
  if (cp >= 1.0) {
    return now;
  }
  switch (kind) {
    case EstimatorKind::kHadoopNaive: {
      // Hadoop default: elapsed wall time divided by progress — charges the
      // JVM startup as if it were data processing.
      const double elapsed = now - attempt.launch_time;
      return attempt.launch_time + elapsed / cp;
    }
    case EstimatorKind::kChronos: {
      if (!attempt.reported) {
        return unknown_completion_time();
      }
      if (cp <= 1e-9) {
        return unknown_completion_time();
      }
      // Eq. 30: the first report carries the start offset, so progress
      // within the attempt's own work is 0 there and cp at `now`.
      const double t_fp = attempt.first_report_time();
      return t_fp + (now - t_fp) / cp;
    }
  }
  CHRONOS_ENSURES(false, "unknown estimator kind");
}

double resume_offset(const AttemptRecord& attempt, double observed_progress,
                     double now) {
  CHRONOS_EXPECTS(observed_progress >= 0.0 && observed_progress <= 1.0,
                  "progress score must lie in [0, 1]");
  // b_est: fraction processed so far. b_extra (Eq. 31): the fraction the
  // original will process while a new attempt's JVM starts, estimated from
  // the measured processing rate and the measured JVM startup time
  // (t_FP - t_lau).
  const double b_est = observed_progress;
  double b_extra = 0.0;
  if (attempt.reported) {
    const double t_fp = attempt.first_report_time();
    const double jvm = t_fp - attempt.launch_time;
    const double processing = now - t_fp;
    if (processing > 1e-9) {
      b_extra = b_est / processing * jvm;
    }
  }
  return std::clamp(b_est + b_extra, 0.0, 1.0);
}

}  // namespace chronos::mapreduce
