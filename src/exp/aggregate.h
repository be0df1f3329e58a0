// Per-cell aggregation of replicated experiment runs: mean / spread / 95%
// confidence intervals over the §VII metrics, built on stats/summary.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "trace/harness.h"

namespace chronos::exp {

/// Mean and spread of one scalar metric across a cell's replications.
struct MetricSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1)
  double ci95 = 0.0;    ///< Student-t 95% CI half-width, 0 for n < 2
  double min = 0.0;
  double max = 0.0;
};

/// What one replication of a cell produced. `utility` is only meaningful
/// when `has_utility` is set (the cell's run hook supplied theta and R_min).
struct RunRecord {
  trace::ExperimentResult result;
  bool has_utility = false;
  double utility = 0.0;
};

/// Aggregate metrics of one sweep cell across its replications.
struct CellAggregate {
  std::uint64_t runs = 0;
  std::uint64_t jobs = 0;  ///< total jobs simulated across replications
  MetricSummary pocd;
  MetricSummary cost;          ///< mean per-job cost of each run
  MetricSummary machine_time;  ///< mean per-job machine time of each run
  MetricSummary mean_r;        ///< mean optimizer-chosen r of each run
  MetricSummary utility;       ///< count 0 when no run reported a utility
  std::uint64_t attempts_launched = 0;
  std::uint64_t attempts_killed = 0;
  std::uint64_t attempts_failed = 0;
  std::uint64_t events_executed = 0;  ///< simulator events across all runs
};

/// Reduces one cell's replications. Requires a non-empty span.
CellAggregate aggregate_runs(std::span<const RunRecord> runs);

/// The named summary of `aggregate`, or nullptr for an unknown name.
const MetricSummary* find_metric(const CellAggregate& aggregate,
                                 const std::string& name);

}  // namespace chronos::exp
