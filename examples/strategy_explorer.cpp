// Strategy explorer: the Theorem 7 orderings made tangible.
//
// For a configurable job, prints the per-task failure-probability ratios of
// Clone vs S-Restart vs S-Resume across r, the Theorem 7(3) crossover
// threshold between Clone and S-Resume, and a confirmation in the
// discrete-event simulator.
//
//   ./strategy_explorer [deadline] [beta] [phi_est]
#include <cstdio>
#include <cstdlib>

#include "core/chronos.h"
#include "trace/harness.h"
#include "trace/planner.h"

int main(int argc, char** argv) {
  using namespace chronos::core;  // NOLINT

  JobParams job;
  job.num_tasks = 10;
  job.deadline = argc > 1 ? std::atof(argv[1]) : 100.0;
  job.t_min = 30.0;
  job.beta = argc > 2 ? std::atof(argv[2]) : 1.5;
  job.tau_est = 40.0;
  job.tau_kill = 80.0;
  job.phi_est = argc > 3 ? std::atof(argv[3]) : default_phi_est(job);
  job.validate();

  std::printf(
      "Job: N=%d, D=%.0f, Pareto(%.0f, %.2f), tau_est=%.0f, phi=%.3f\n\n",
      job.num_tasks, job.deadline, job.t_min, job.beta, job.tau_est,
      job.phi_est);

  std::printf("%3s  %10s  %10s  %10s   %s\n", "r", "R_Clone", "R_S-Restart",
              "R_S-Resume", "best");
  for (double r = 0.0; r <= 6.0; r += 1.0) {
    const double clone = pocd(Strategy::kClone, job, r);
    const double restart = pocd(Strategy::kSpeculativeRestart, job, r);
    const double resume = pocd(Strategy::kSpeculativeResume, job, r);
    const char* best = clone >= restart && clone >= resume  ? "Clone"
                       : resume >= restart                  ? "S-Resume"
                                                            : "S-Restart";
    std::printf("%3.0f  %10.6f  %10.6f  %10.6f   %s\n", r, clone, restart,
                resume, best);
  }

  const double threshold = clone_beats_resume_threshold(job);
  std::printf(
      "\nTheorem 7: Clone always beats S-Restart; S-Resume always beats\n"
      "S-Restart; Clone overtakes S-Resume when r > %.2f\n",
      threshold);

  std::printf("\nPer-task failure ratios at r = 2:\n");
  std::printf("  (1-R_Clone)/(1-R_S-Restart) per task = %.4f  (< 1)\n",
              clone_vs_restart_ratio(job, 2.0));
  std::printf("  (1-R_S-Restart)/(1-R_S-Resume) per task = %.4f  (> 1)\n",
              restart_vs_resume_ratio(job, 2.0));

  // Simulator confirmation of the analytic ordering at r = 2. Machine time
  // reads below the theorems here: their kill windows are longer than
  // t_min, and a copy that finishes inside one ends its losers early.
  std::printf("\nSimulator (5k jobs) at r = 2:\n");
  for (const Strategy strategy :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    const auto sim = chronos::trace::replay_isolated(
                         job, chronos::trace::policy_of(strategy), 2, 5000)
                         .metrics;
    std::printf("  %-10s PoCD = %.4f +- %.4f   E(T) = %.1f machine-s"
                " (closed form %.1f)\n",
                to_string(strategy).c_str(), sim.pocd(), sim.pocd_ci(),
                sim.mean_machine_time(), machine_time(strategy, job, 2.0));
  }
  return 0;
}
