// Synthetic Google-trace-style workload (§VII-B substitution).
//
// The paper replays 30 hours / 2700 jobs / ~1M tasks from the 2011 Google
// cluster trace, extracting per-job arrival time, task count and execution-
// time distribution, then regenerates task durations from a fitted Pareto.
// We synthesize a trace with the same statistical structure (Poisson
// arrivals, heavy-tailed task counts, per-job Pareto parameters), seeded and
// fully deterministic. DESIGN.md documents why this preserves the
// evaluation's behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mapreduce/job.h"

namespace chronos::trace {

/// One job of the trace: a submission time plus the job description.
struct TracedJob {
  double submit_time = 0.0;
  mapreduce::JobSpec spec;
};

struct TraceConfig {
  int num_jobs = 2700;
  double duration_hours = 30.0;

  // Task counts: lognormal (log-sigma 1), heavy-tailed like the Google
  // trace, clamped to [1, max_tasks].
  double mean_tasks = 370.0;  ///< ~1M tasks / 2700 jobs
  int max_tasks = 5000;

  // Per-job Pareto duration parameters.
  double t_min_lo = 20.0;   ///< log-uniform range of t_min (seconds)
  double t_min_hi = 80.0;
  double beta_lo = 1.2;     ///< uniform range of the tail index
  double beta_hi = 1.8;

  // Deadline = factor * mean task execution time, factor ~ U[lo, hi].
  // (Figure 4 uses a fixed factor of 2.)
  double deadline_factor_lo = 2.0;
  double deadline_factor_hi = 2.0;

  // JVM startup model applied to every job.
  double jvm_mean = 2.0;
  double jvm_jitter = 1.0;

  /// Deterministic stage templates appended after the sampled root stage:
  /// stages[0] of every job is sampled as above, then each entry here
  /// becomes stage 1, 2, ... verbatim (its `deps` indices refer to the
  /// final stage numbering, where 0 is the sampled root). No RNG is drawn
  /// for them, so map-only traces (`extra_stages` empty) are bit-identical
  /// to traces generated before staged jobs existed.
  std::vector<mapreduce::StageSpec> extra_stages;

  std::uint64_t seed = 42;

  void validate() const;
};

/// Generates the trace. Jobs are sorted by submission time; job ids are
/// sequential. Strategy fields (r, tau_est, tau_kill, price) are left at
/// defaults for the planner to fill.
std::vector<TracedJob> generate_trace(const TraceConfig& config);

/// Samples one job's shape (task count, t_min, beta, deadline, JVM model)
/// from the trace template, drawing from the caller's rng — the per-job
/// kernel of generate_trace, exposed so the open-system engine can sample
/// shapes per arrival from the same statistical model. `config` must be
/// validated by the caller; num_jobs/duration_hours/seed are not consumed.
mapreduce::JobSpec sample_job_spec(const TraceConfig& config, int job_id,
                                   Rng& rng);

/// Total task count of a trace.
std::int64_t total_tasks(const std::vector<TracedJob>& jobs);

}  // namespace chronos::trace
