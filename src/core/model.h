// Parameter records shared by the whole analytic core.
//
// Notation follows the paper (§III):
//   N        number of tasks in the job
//   D        job deadline (all N tasks must finish by D)
//   t_min    Pareto scale of a single attempt's execution time
//   beta     Pareto tail index of a single attempt's execution time
//   tau_est  time at which stragglers are detected (S-Restart / S-Resume)
//   tau_kill time at which all but the best attempt are killed
//   phi_est  average progress fraction of a straggling original attempt at
//            tau_est (S-Resume resumes from this fraction)
//   r        number of EXTRA attempts (Clone runs r+1 copies total)
#pragma once

#include <string>

namespace chronos::core {

/// The three Chronos strategies analysed in closed form.
enum class Strategy { kClone, kSpeculativeRestart, kSpeculativeResume };

/// Human-readable strategy name ("Clone", "S-Restart", "S-Resume").
std::string to_string(Strategy strategy);

/// Static description of one MapReduce job for the analytic model.
struct JobParams {
  int num_tasks = 1;       ///< N >= 1
  double deadline = 0.0;   ///< D > t_min
  double t_min = 0.0;      ///< Pareto scale, > 0
  double beta = 0.0;       ///< Pareto tail index, > 0
  double tau_est = 0.0;    ///< straggler-detection time, in [0, D)
  double tau_kill = 0.0;   ///< kill time, >= tau_est
  double phi_est = 0.0;    ///< progress fraction at tau_est, in [0, 1)

  /// Throws PreconditionError when any field is outside its documented
  /// domain, or when deadline - tau_est < t_min (speculation after tau_est
  /// could never help; the paper excludes this regime).
  void validate() const;
};

/// Pricing and optimization weights (§V).
struct Economics {
  double price = 1.0;     ///< C: usage-based VM price per unit machine time
  double theta = 1e-4;    ///< tradeoff factor between PoCD utility and cost
  double r_min = 0.0;     ///< R_min: minimum required PoCD (utility -> -inf
                          ///< when R(r) <= R_min)

  void validate() const;
};

/// Model-based default for phi_est: the expected progress fraction
/// tau_est * E[1/T | T > D] of an original attempt that misses the deadline,
/// which for Pareto(t_min, beta) equals tau_est * beta / ((beta + 1) * D).
double default_phi_est(const JobParams& params);

}  // namespace chronos::core
