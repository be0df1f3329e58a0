// Open-system simulation layer (long-running cluster, ROADMAP "open
// system" item).
//
// The closed-system harness (trace/harness.h) replays a finite, pre-planned
// trace to completion. This layer instead drives the same
// Simulator/Cluster/Scheduler stack with Poisson arrivals at a constant
// rate, samples each job's shape on arrival from the Google-trace
// statistical template, plans it at admission time through
// serve::PlannerService (fixed policy, or per-job strategy selection via
// core::optimize_all), and pushes it through a capacity-aware admission
// controller:
//
//   reject   when the projected task backlog exceeds 4 x the cluster's
//            total containers (the job could not start for a long time
//            anyway);
//   degrade  when the job's speculative demand (r extra attempts per task)
//            exceeds the currently free headroom — the job runs under
//            Hadoop-NS with r = 0 instead of its planned strategy;
//   admit    otherwise, under the planned strategy.
//
// Arrivals stop at the horizon (`duration`); the event loop then runs dry,
// so every admitted job completes and the run ends with no job in flight.
//
// Metrics are warm-up aware: time-weighted utilization, jobs-in-system and
// container-queue depth are integrated over [warm_up, duration] only, and
// per-job statistics (sojourn, deadline-miss rate, cost) cover jobs that
// arrive inside that window.
//
// Memory tracks in-flight work, not the horizon: a completed job is retired
// from the scheduler (Scheduler::retire_completed_jobs), which frees its
// spec, tasks, attempts, per-stage state, samplers and policy pointer. The
// residue is the job's 4 B slot index in the scheduler (8 B with vector
// slack). On the perf ledger's open_steady (4-vCPU Xeon VM) sweeprun's peak
// RSS fell from 68.6 to 4.9 MB; from 10 to 160 h it now grows from 4.8 to
// 6.1 MB, where it grew from 21 to 234 MB.
#pragma once

#include <array>
#include <cstdint>

#include "mapreduce/scheduler.h"
#include "serve/planner.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "strategies/policies.h"
#include "trace/google_trace.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace chronos::sim {

/// The arrival stream: homogeneous Poisson, i.e. exponential gaps at `rate`
/// drawn from the run's arrival Rng (the §VII-B trace model, unbounded in
/// time). Parsed from the manifest's [arrivals] section.
struct ArrivalSpec {
  double rate = 0.1;  ///< mean arrivals per second; positive and finite
};

/// Outcome of admission control for one planned arrival.
enum class AdmissionDecision { kAdmit, kDegrade, kReject };

/// The pure admission rule the engine applies at each arrival, exposed so
/// tests can drive it against synthetic cluster states. `backlog` is the
/// pending container-request count, `idle_containers` / `total_containers`
/// the cluster occupancy at the arrival instant. A job is rejected when
/// backlog + its task count > 4 * total_containers, and degraded when its
/// speculative demand > max(0, idle_containers - backlog). Speculative
/// demand counts EVERY stage by construction: sum over stages of
/// stage.r * stage.num_tasks (a reduce- or tail-stage-heavy job must not
/// slip past the headroom check on the strength of a tiny root stage).
AdmissionDecision admission_decide(const mapreduce::JobSpec& spec,
                                   double backlog, double idle_containers,
                                   double total_containers);

/// Configuration of one open-system run.
struct OpenSystemConfig {
  ArrivalSpec arrivals;

  /// Per-job shape template (task count, t_min, beta, deadline, JVM).
  /// num_jobs / duration_hours / seed are not consumed — jobs are sampled
  /// one at a time as they arrive.
  trace::TraceConfig workload;

  /// Per-job planning knobs. r_min_from_baseline applies per job exactly as
  /// in the closed-system planner.
  trace::PlannerConfig planner;

  /// Spot-price process used for spec.price at each arrival.
  trace::SpotPriceConfig prices;

  /// Plan memo of the per-run serve::PlannerService: grid 0 plans every
  /// arrival from scratch; a nonzero grid shares plans within grid buckets
  /// (see serve/planner.h). quantized:0.05 served 109,517 of 172,061
  /// requests on the perf ledger's open_auto_small at seed 1.
  serve::PlanCacheConfig plan_cache;

  sim::ClusterConfig cluster;
  mapreduce::SchedulerConfig scheduler;

  /// Strategy for every admitted job when auto_strategy is off.
  strategies::PolicyKind policy = strategies::PolicyKind::kSResume;

  /// When on, each arrival runs core::optimize_all and is scheduled under
  /// the analytically best of Clone / S-Restart / S-Resume.
  bool auto_strategy = false;

  double duration = 3600.0;  ///< arrival horizon (simulated seconds)
  double warm_up = 0.0;      ///< measurement starts here (< duration)

  std::uint64_t seed = 1;

  void validate() const;
};

/// How admitted jobs were scheduled, indexed by strategies::PolicyKind.
struct StrategyMix {
  std::array<std::uint64_t, 6> planned{};

  std::uint64_t& operator[](strategies::PolicyKind kind) {
    return planned[static_cast<std::size_t>(kind)];
  }
  std::uint64_t operator[](strategies::PolicyKind kind) const {
    return planned[static_cast<std::size_t>(kind)];
  }
};

/// Steady-state view of one open-system run.
struct OpenSystemResult {
  // Conservation counters over the whole run. The event loop runs dry
  // after the horizon, so every admitted job completes. Invariants:
  //   arrivals == admitted + rejected
  //   admitted == completed
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t degraded = 0;  ///< admitted under forced Hadoop-NS
  std::uint64_t completed = 0;
  std::uint64_t in_flight_max = 0;
  /// Scheduler::live_jobs at its high-water: completed jobs are retired,
  /// so this equals in_flight_max.
  std::uint64_t live_jobs_max = 0;

  /// Measurement window [warm_up, duration] in seconds.
  double window = 0.0;
  std::uint64_t window_arrivals = 0;  ///< arrivals inside the window
  std::uint64_t window_admitted = 0;

  double offered_rate = 0.0;   ///< window_arrivals / window
  double admitted_rate = 0.0;  ///< window_admitted / window

  /// Time-weighted means over the window.
  double utilization = 0.0;         ///< busy containers / total containers
  double mean_jobs_in_system = 0.0; ///< Little's L over admitted jobs
  double mean_queue_depth = 0.0;    ///< pending container requests

  /// Little's W over measured jobs (arrived in-window): completion -
  /// arrival.
  double mean_sojourn = 0.0;

  /// Mean analytic no-speculation PoCD of the in-window offered jobs (the
  /// per-job R_min the planner uses in baseline mode).
  double mean_baseline_pocd = 0.0;

  StrategyMix mix;

  /// Aggregate metrics of the measured jobs, the in-window arrivals, all
  /// of which complete: PoCD (1 - miss rate), cost, attempts. Outcome rows
  /// are not retained; pocd() throws when no job arrived in the window.
  sim::RunMetrics metrics;

  /// Plan-cache traffic of the run's PlannerService (0/0 with the cache
  /// off). Not part of the CSV/JSON reports — the serve.* obs metrics and
  /// these counters carry it instead, so cached runs stay byte-identical.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;

  std::uint64_t events_executed = 0;
  /// The later of the horizon and the last completion.
  double end_time = 0.0;
};

/// Runs one open-system simulation until every admitted job has completed.
/// Deterministic given config.seed.
OpenSystemResult run_open_system(const OpenSystemConfig& config);

}  // namespace chronos::sim
