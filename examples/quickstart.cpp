// Quickstart: optimize the number of speculative attempts for one job.
//
// Given a job's size, deadline and measured Pareto task-duration parameters,
// Chronos computes — for each strategy — the PoCD, the expected machine-time
// cost, and the optimal number of extra attempts r that maximizes the net
// utility lg(PoCD - R_min) - theta * C * E(T)  (Algorithm 1).
//
//   ./quickstart                # built-in demo job
#include <cstdio>

#include "core/chronos.h"
#include "trace/harness.h"
#include "trace/planner.h"

int main() {
  using namespace chronos::core;  // NOLINT

  // A deadline-critical job: 100 map tasks, 3-minute deadline, and task
  // execution times fitted to Pareto(t_min = 30 s, beta = 1.5) — i.e. a
  // mean task time of 90 s and a heavy straggler tail.
  JobParams job;
  job.num_tasks = 100;
  job.deadline = 180.0;
  job.t_min = 30.0;
  job.beta = 1.5;
  job.tau_est = 9.0;    // detect stragglers at 0.3 * t_min
  job.tau_kill = 24.0;  // kill losers at 0.8 * t_min
  job.phi_est = default_phi_est(job);

  Economics econ;
  econ.price = 0.4;   // VM price per machine-second (cost units)
  econ.theta = 1e-4;  // tradeoff factor: 1% PoCD ~ 100 cost units
  econ.r_min = pocd_no_speculation(job);  // must beat no-speculation

  std::printf("Job: N=%d tasks, D=%.0fs, Pareto(t_min=%.0fs, beta=%.2f)\n",
              job.num_tasks, job.deadline, job.t_min, job.beta);
  std::printf("Without speculation: PoCD = %.4f, E(T) = %.1f machine-s\n\n",
              pocd_no_speculation(job), machine_time_no_speculation(job));

  for (const Strategy strategy :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    const auto result = optimize(strategy, job, econ);
    std::printf("%-10s r* = %lld   PoCD = %.4f   cost = %.1f   U = %.4f"
                "   (Gamma = %.2f, %lld evaluations)\n",
                to_string(strategy).c_str(), result.r_opt, result.best.pocd,
                result.best.cost, result.best.utility, result.gamma,
                static_cast<long long>(result.evaluations));
  }

  const auto best = optimize_all(job, econ);
  std::printf("\nBest strategy: %s with r = %lld extra attempts\n",
              to_string(best.strategy).c_str(), best.result.r_opt);

  // Sanity-check the closed forms by replaying the plan on 1,000 copies of
  // the job in the discrete-event simulator.
  const auto sim = chronos::trace::replay_isolated(
                       job, chronos::trace::policy_of(best.strategy),
                       best.result.r_opt, 1000)
                       .metrics;
  std::printf("Simulator check: PoCD = %.4f +- %.4f (closed form %.4f)\n",
              sim.pocd(), sim.pocd_ci(), best.result.best.pocd);
  return 0;
}
