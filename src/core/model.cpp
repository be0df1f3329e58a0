#include "core/model.h"

#include "common/error.h"

namespace chronos::core {

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kClone:
      return "Clone";
    case Strategy::kSpeculativeRestart:
      return "S-Restart";
    case Strategy::kSpeculativeResume:
      return "S-Resume";
  }
  return "?";
}

void JobParams::validate() const {
  CHRONOS_EXPECTS(num_tasks >= 1, "JobParams: num_tasks must be >= 1");
  CHRONOS_EXPECTS(t_min > 0.0, "JobParams: t_min must be positive");
  CHRONOS_EXPECTS(beta > 0.0, "JobParams: beta must be positive");
  CHRONOS_EXPECTS(deadline > t_min, "JobParams: deadline must exceed t_min");
  CHRONOS_EXPECTS(tau_est >= 0.0 && tau_est < deadline,
                  "JobParams: tau_est must lie in [0, deadline)");
  CHRONOS_EXPECTS(tau_kill >= tau_est,
                  "JobParams: tau_kill must be >= tau_est");
  CHRONOS_EXPECTS(phi_est >= 0.0 && phi_est < 1.0,
                  "JobParams: phi_est must lie in [0, 1)");
  // Launching extra attempts at tau_est only makes sense when a fresh attempt
  // could still meet the deadline (paper, proof of Theorem 4).
  CHRONOS_EXPECTS(deadline - tau_est >= t_min,
                  "JobParams: deadline - tau_est must be >= t_min");
}

void Economics::validate() const {
  CHRONOS_EXPECTS(price >= 0.0, "Economics: price must be non-negative");
  CHRONOS_EXPECTS(theta >= 0.0, "Economics: theta must be non-negative");
  CHRONOS_EXPECTS(r_min >= 0.0 && r_min < 1.0,
                  "Economics: r_min must lie in [0, 1)");
}

double default_phi_est(const JobParams& params) {
  // E[1/T | T > D] for Pareto(t_min, beta) truncated above D: the conditional
  // distribution is Pareto(D, beta), and E[1/T] for Pareto(a, b) is
  // b / (a * (b + 1)).
  return params.tau_est * params.beta /
         ((params.beta + 1.0) * params.deadline);
}

}  // namespace chronos::core
