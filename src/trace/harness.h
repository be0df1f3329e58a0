// Experiment harness: replays a (planned) trace against the discrete-event
// cluster under one strategy and collects the §VII metrics. Shared by all
// bench binaries, the examples, and the integration tests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "strategies/policies.h"
#include "trace/google_trace.h"

namespace chronos::trace {

struct ExperimentConfig {
  strategies::PolicyKind policy = strategies::PolicyKind::kHadoopNS;
  strategies::PolicyOptions policy_options;
  sim::ClusterConfig cluster;
  mapreduce::SchedulerConfig scheduler;
  std::uint64_t seed = 1;

  /// A generously provisioned cluster (no container contention), used for
  /// the trace-driven simulations of §VII-B.
  static ExperimentConfig large_scale(strategies::PolicyKind policy,
                                      std::uint64_t seed = 1);

  /// The 40-node testbed of §VII-A (8 containers per node).
  static ExperimentConfig testbed(strategies::PolicyKind policy,
                                  std::uint64_t seed = 1);
};

struct ExperimentResult {
  std::string policy_name;
  sim::RunMetrics metrics;
  std::uint64_t events_executed = 0;

  double pocd() const { return metrics.pocd(); }
  double mean_cost() const { return metrics.mean_cost(); }
  double utility(double theta, double r_min) const {
    return metrics.utility(theta, r_min);
  }
};

/// Runs the whole trace to completion under the configured policy. The
/// specs must already be planned (plan_trace) for Chronos policies.
///
/// Submissions fire in (submit_time, trace index) order, each before every
/// other event at its instant, so `jobs` need not be sorted. Only the next
/// submission is pending at any time (it schedules the one after it, as the
/// open engine's arrivals do), so the event queue holds in-flight work, not
/// the rest of the trace. The result's metrics are running aggregates,
/// O(1) in the trace length; per-job rows come back only when
/// `config.scheduler.retain_outcomes` opts in. Requires every
/// submit_time >= 0.
ExperimentResult run_experiment(const std::vector<TracedJob>& jobs,
                                const ExperimentConfig& config);

/// Replays `copies` copies of the one-stage job `params` under `policy`,
/// each task planned with `r` extra attempts (a baseline policy ignores r
/// and the timers), in the setting Theorems 1-6 describe: no progress
/// noise, no JVM start-up, no failures, and the large_scale cluster at seed
/// 1. Copies are submitted 1,000 s apart and seldom overlap; unless
/// N (r + 1) nears the cluster's 4,096 containers, no attempt waits for
/// one. params.phi_est is the model's input only: S-Resume resumes from
/// each straggler's own progress. Requires valid params, r >= 0 and
/// copies >= 1.
ExperimentResult replay_isolated(const core::JobParams& params,
                                 strategies::PolicyKind policy, long long r,
                                 int copies);

}  // namespace chronos::trace
