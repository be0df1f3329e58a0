// Cluster simulation: run the long-lived open-system engine — Poisson job
// arrivals against the discrete-event MapReduce cluster, each arrival
// planned at admission time and pushed through the capacity-aware
// admission controller — and report the steady-state view: utilization,
// Little's-law occupancy, sojourn time, deadline-miss rate, cost, and how
// the admitted jobs were scheduled.
//
//   ./cluster_sim [strategy] [rate] [hours] [theta] [seed]
//   strategy in {hadoop-ns, hadoop-s, mantri, clone, s-restart, s-resume,
//                auto}; auto picks per job via the Algorithm-1 optimizer
//   rate     mean arrivals per second (default 0.05, ~70% load)
//   hours    arrival horizon, first 10% used as warm-up (default 1)
//   e.g. ./cluster_sim auto 0.05 2 1e-4 7
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/open_system.h"
#include "strategies/policies.h"

using namespace chronos;  // NOLINT
using strategies::PolicyKind;

int main(int argc, char** argv) {
  const std::string strategy = argc > 1 ? argv[1] : "s-resume";
  const double rate = argc > 2 ? std::atof(argv[2]) : 0.05;
  const double hours = argc > 3 ? std::atof(argv[3]) : 1.0;
  const double theta = argc > 4 ? std::atof(argv[4]) : 1e-4;
  const std::uint64_t seed =
      argc > 5 ? static_cast<std::uint64_t>(std::atoll(argv[5])) : 1;

  sim::OpenSystemConfig config;
  config.arrivals.rate = rate;
  config.workload.mean_tasks = 60.0;
  config.workload.max_tasks = 600;
  config.planner.theta = theta;
  if (strategy == "auto") {
    config.auto_strategy = true;
  } else if (const auto kind = strategies::policy_from_name(strategy)) {
    config.policy = *kind;
  } else {
    std::fprintf(stderr,
                 "unknown strategy '%s'; expected hadoop-ns|hadoop-s|mantri|"
                 "clone|s-restart|s-resume|auto\n",
                 strategy.c_str());
    return 1;
  }
  sim::NodeConfig node;
  node.containers = 8;
  config.cluster = sim::ClusterConfig::uniform(64, node);
  config.duration = hours * 3600.0;
  config.warm_up = 0.1 * config.duration;
  config.seed = seed;

  const auto result = sim::run_open_system(config);
  // RunMetrics::pocd() needs a job; a window no job arrived in reads 0.
  const bool measured = result.metrics.jobs() > 0;
  const double miss_rate = measured ? 1.0 - result.metrics.pocd() : 0.0;
  const double mean_cost = measured ? result.metrics.mean_cost() : 0.0;

  std::printf("Open system: poisson arrivals at %.3f jobs/s for %.2f h "
              "(warm-up %.2f h), %d containers\n",
              rate, hours, 0.1 * hours, 64 * node.containers);
  std::printf("Strategy: %s (theta = %g, seed = %llu)\n",
              config.auto_strategy
                  ? "auto (per-job optimize_all)"
                  : strategies::to_string(config.policy).c_str(),
              theta, static_cast<unsigned long long>(seed));

  std::printf("\nConservation\n");
  std::printf("  arrivals        : %llu (%llu in window)\n",
              static_cast<unsigned long long>(result.arrivals),
              static_cast<unsigned long long>(result.window_arrivals));
  std::printf("  admitted        : %llu (%llu degraded to Hadoop-NS)\n",
              static_cast<unsigned long long>(result.admitted),
              static_cast<unsigned long long>(result.degraded));
  std::printf("  rejected        : %llu\n",
              static_cast<unsigned long long>(result.rejected));
  std::printf("  completed       : %llu\n",
              static_cast<unsigned long long>(result.completed));

  std::printf("\nSteady state over the measurement window\n");
  std::printf("  offered rate    : %.4f jobs/s (admitted %.4f)\n",
              result.offered_rate, result.admitted_rate);
  std::printf("  utilization     : %.4f\n", result.utilization);
  std::printf("  jobs in system  : %.3f (Little: lambda*W = %.3f)\n",
              result.mean_jobs_in_system,
              result.admitted_rate * result.mean_sojourn);
  std::printf("  queue depth     : %.3f pending container requests\n",
              result.mean_queue_depth);
  std::printf("  mean sojourn    : %.2f s\n", result.mean_sojourn);
  std::printf("  deadline misses : %.4f (PoCD %.4f, baseline %.4f)\n",
              miss_rate, 1.0 - miss_rate,
              result.mean_baseline_pocd);
  std::printf("  mean cost       : %.2f per job\n", mean_cost);

  std::printf("\nStrategy mix of admitted jobs\n");
  for (const auto kind :
       {PolicyKind::kHadoopNS, PolicyKind::kHadoopS, PolicyKind::kMantri,
        PolicyKind::kClone, PolicyKind::kSRestart, PolicyKind::kSResume}) {
    if (result.mix[kind] > 0) {
      std::printf("  %-12s: %llu\n", strategies::to_string(kind).c_str(),
                  static_cast<unsigned long long>(result.mix[kind]));
    }
  }
  std::printf("\n%llu simulator events to t = %.0f s\n",
              static_cast<unsigned long long>(result.events_executed),
              result.end_time);
  return 0;
}
