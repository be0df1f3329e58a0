#include "core/cost.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/numeric.h"
#include "core/analytic_context.h"
#include "core/kernels.h"
#include "stats/pareto.h"

namespace chronos::core {

namespace {

void check(const JobParams& params, double r) {
  params.validate();
  CHRONOS_EXPECTS(r >= 0.0, "number of extra attempts r must be >= 0");
}

}  // namespace

double expected_time_below_deadline(const JobParams& params) {
  const stats::Pareto attempt(params.t_min, params.beta);
  return attempt.truncated_mean_below(params.deadline);
}

double s_restart_winner_time(const JobParams& params, double r) {
  check(params, r);
  // Closed form (see the derivation note in cost.h); the kernel enforces
  // beta * (r + 1) > 1, without which the integral diverges.
  return kernels::s_restart_winner_mean(params, r);
}

double s_restart_winner_time_reference(const JobParams& params, double r) {
  check(params, r);
  CHRONOS_EXPECTS(params.beta * (r + 1.0) > 1.0,
                  "s_restart_winner_time requires beta * (r + 1) > 1: the "
                  "survival product decays like w^{-beta(r+1)}, so the "
                  "winner-time integral diverges otherwise");
  const double d_bar = params.deadline - params.tau_est;
  const double beta = params.beta;
  const double t_min = params.t_min;
  // W_hat = min(T_hat_1 - tau_est, T_2, ..., T_{r+1}) where
  // T_hat_1 ~ Pareto(D, beta) (original conditioned on missing the deadline,
  // Lemma 3) and the r restarted attempts are fresh Pareto(t_min, beta).
  //
  // E(W_hat) = int_0^inf  S_orig(w) * S_fresh(w)^r  dw with
  //   S_orig(w)  = 1 for w < D - tau_est, else (D / (w + tau_est))^beta
  //   S_fresh(w) = 1 for w < t_min,       else (t_min / w)^beta.
  // The piecewise product is integrated numerically; this is the quadrature
  // implementation the closed form is validated against.
  const auto survival_product = [&](double w) {
    double s = 1.0;
    if (w >= d_bar) {
      s *= std::pow(params.deadline / (w + params.tau_est), beta);
    }
    if (r > 0.0 && w >= t_min) {
      s *= std::pow(t_min / w, beta * r);
    }
    return s;
  };
  const double knee1 = std::min(t_min, d_bar);
  const double knee2 = std::max(t_min, d_bar);
  double total = knee1;  // survival product is exactly 1 below the first knee
  total += numeric::integrate(survival_product, knee1, knee2);
  total += numeric::integrate_to_infinity(survival_product, knee2);
  return total;
}

double machine_time_s_resume_exact(const JobParams& params, double r) {
  check(params, r);
  CHRONOS_EXPECTS(params.beta > 1.0,
                  "machine_time_s_resume_exact requires beta > 1");
  const double n_eff = params.beta * (r + 1.0);
  CHRONOS_EXPECTS(n_eff > 1.0,
                  "machine_time_s_resume_exact requires beta * (r + 1) > 1");
  const double winner = kernels::s_resume_winner_mean_exact(params, n_eff);
  const double p_straggle = kernels::straggler_probability(params);
  const double below = expected_time_below_deadline(params);
  return kernels::straggler_split_total(
      params, below, kernels::speculation_above(params, r, winner),
      p_straggle);
}

double machine_time(Strategy strategy, const JobParams& params, double r) {
  return AnalyticContext(strategy, params).machine_time(r);
}

double machine_time_no_speculation(const JobParams& params) {
  params.validate();
  CHRONOS_EXPECTS(params.beta > 1.0,
                  "machine_time_no_speculation requires beta > 1");
  const stats::Pareto attempt(params.t_min, params.beta);
  return static_cast<double>(params.num_tasks) * attempt.mean();
}

}  // namespace chronos::core
