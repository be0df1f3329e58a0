// Fit-and-plan: the full Chronos workflow on measured task durations.
//
// §VII-A fits a Pareto distribution to task execution times observed on the
// noisy testbed, then optimizes the speculation parameters against the fit.
// This example (1) generates "measured" durations from a noisy ground-truth
// process, (2) fits Pareto(t_min, beta) by maximum likelihood and checks
// the fit with a KS statistic, (3) plans the optimal strategy and r, and
// (4) replays the plan in the discrete-event simulator.
//
//   ./fit_and_plan [num_samples] [deadline]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/chronos.h"
#include "stats/estimators.h"
#include "trace/harness.h"
#include "trace/planner.h"

int main(int argc, char** argv) {
  using namespace chronos;  // NOLINT

  const int samples = argc > 1 ? std::atoi(argv[1]) : 5000;
  const double deadline = argc > 2 ? std::atof(argv[2]) : 180.0;

  // 1. "Measure" task durations on a contended cluster: a Pareto base
  //    process with multiplicative contention noise (the measurement rig
  //    only sees the combined durations).
  Rng rng(2018);
  std::vector<double> durations;
  durations.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double base = rng.pareto(28.0, 1.55);
    const double contention = 1.0 + 0.1 * rng.uniform();
    durations.push_back(base * contention);
  }

  // 2. Fit the Pareto model (§VII-A observed beta < 2 on the testbed).
  const auto fit = stats::fit_pareto_mle(durations);
  const stats::Pareto model(fit.t_min, fit.beta);
  const double ks = stats::ks_statistic(durations, model);
  std::printf("Fitted Pareto: t_min = %.2f s, beta = %.3f +- %.3f "
              "(KS distance %.4f over %d samples)\n",
              fit.t_min, fit.beta, fit.beta_stderr, ks, samples);
  std::printf("Empirical P(T > D) = %.4f vs model %.4f\n\n",
              stats::exceedance_fraction(durations, deadline),
              model.survival(deadline));

  // 3. Plan: optimize each strategy for a 100-task job with this duration
  //    law and the given deadline.
  core::JobParams job;
  job.num_tasks = 100;
  job.deadline = deadline;
  job.t_min = fit.t_min;
  job.beta = fit.beta;
  job.tau_est = 0.3 * fit.t_min;
  job.tau_kill = 0.8 * fit.t_min;
  job.phi_est = core::default_phi_est(job);

  core::Economics econ;
  econ.price = 0.4;
  econ.theta = 1e-4;
  econ.r_min = core::pocd_no_speculation(job);

  const auto best = core::optimize_all(job, econ);
  std::printf("Plan: %s with r = %lld (PoCD %.4f, cost %.1f, U %.4f)\n",
              core::to_string(best.strategy).c_str(), best.result.r_opt,
              best.result.best.pocd, best.result.best.cost,
              best.result.best.utility);

  // 4. Replay the plan on 1,000 copies of the job in the discrete-event
  //    simulator, with durations drawn from the fitted law.
  const auto sim =
      trace::replay_isolated(job, trace::policy_of(best.strategy),
                             best.result.r_opt, 1000)
          .metrics;
  std::printf("Validation: simulator PoCD %.4f +- %.4f "
              "(plan predicted %.4f)\n",
              sim.pocd(), sim.pocd_ci(), best.result.best.pocd);
  return 0;
}
