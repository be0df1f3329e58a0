#include "exp/aggregate.h"

#include <cmath>

#include "common/error.h"
#include "stats/summary.h"

namespace chronos::exp {

namespace {

// Two-sided 95% Student-t quantiles t_{0.975, df} for df = 1..30. Cells
// typically have only a handful of replications, where the normal z = 1.96
// would understate the interval by more than 2x; beyond df = 30 the normal
// approximation is within 2%.
constexpr double kT95[] = {
    12.706, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
    2.2622, 2.2281, 2.2010, 2.1788, 2.1604, 2.1448, 2.1314, 2.1199,
    2.1098, 2.1009, 2.0930, 2.0860, 2.0796, 2.0739, 2.0687, 2.0639,
    2.0595, 2.0555, 2.0518, 2.0484, 2.0452, 2.0423};

double t95(std::uint64_t df) {
  if (df == 0) {
    return 0.0;
  }
  return df <= 30 ? kT95[df - 1] : 1.96;
}

MetricSummary from_stats(const stats::RunningStats& stats) {
  MetricSummary summary;
  summary.count = stats.count();
  if (stats.count() == 0) {
    return summary;
  }
  summary.mean = stats.mean();
  summary.stddev = stats.stddev();
  summary.min = stats.min();
  summary.max = stats.max();
  if (stats.count() >= 2) {
    summary.ci95 = t95(stats.count() - 1) * stats.stddev() /
                   std::sqrt(static_cast<double>(stats.count()));
  }
  return summary;
}

double run_mean_r(const trace::ExperimentResult& result) {
  // From the running sum: replications keep no per-job outcome rows.
  return static_cast<double>(result.metrics.total_r_used()) /
         static_cast<double>(result.metrics.jobs());
}

}  // namespace

CellAggregate aggregate_runs(std::span<const RunRecord> runs) {
  CHRONOS_EXPECTS(!runs.empty(), "cannot aggregate an empty cell");
  CellAggregate aggregate;
  aggregate.runs = runs.size();
  stats::RunningStats pocd, cost, machine_time, mean_r, utility;
  for (const auto& run : runs) {
    const auto& metrics = run.result.metrics;
    aggregate.jobs += metrics.jobs();
    aggregate.attempts_launched += metrics.attempts_launched();
    aggregate.attempts_killed += metrics.attempts_killed();
    aggregate.attempts_failed += metrics.attempts_failed();
    aggregate.events_executed += run.result.events_executed;
    pocd.add(metrics.pocd());
    cost.add(metrics.mean_cost());
    machine_time.add(metrics.mean_machine_time());
    mean_r.add(run_mean_r(run.result));
    if (run.has_utility) {
      utility.add(run.utility);
    }
  }
  aggregate.pocd = from_stats(pocd);
  aggregate.cost = from_stats(cost);
  aggregate.machine_time = from_stats(machine_time);
  aggregate.mean_r = from_stats(mean_r);
  aggregate.utility = from_stats(utility);
  return aggregate;
}

const MetricSummary* find_metric(const CellAggregate& aggregate,
                                 const std::string& name) {
  if (name == "pocd") return &aggregate.pocd;
  if (name == "cost") return &aggregate.cost;
  if (name == "machine_time") return &aggregate.machine_time;
  if (name == "mean_r") return &aggregate.mean_r;
  if (name == "utility") return &aggregate.utility;
  return nullptr;
}

}  // namespace chronos::exp
