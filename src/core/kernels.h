// Formula kernels of the analytic core: one inline function per term of
// Theorems 1-6, each documented with the equation it evaluates.
//
// AnalyticContext (core/analytic_context.cpp) is their caller: it computes
// the r-independent constants (straggler probability, per-extra-attempt
// failure factors, truncated Pareto means) once and passes them in, so each
// kernel is only the r-dependent remainder. The few functions outside the
// context that need a term (pocd_no_speculation, the exact S-Resume
// variant, the winner-time entry points in cost.cpp) call the same kernel
// rather than restating its formula.
#pragma once

#include <cmath>

#include "common/error.h"
#include "core/model.h"

namespace chronos::core::kernels {

/// expm1(x) / x with the removable singularity at x == 0 filled in.
/// Relative accuracy is ~1 ulp everywhere (expm1 is exact near 0).
inline double expm1_ratio(double x) {
  if (x == 0.0) {
    return 1.0;
  }
  return std::expm1(x) / x;
}

/// P(T_1 > D) = (t_min / D)^beta — straggler probability of one attempt.
inline double straggler_probability(const JobParams& p) {
  return std::pow(p.t_min / p.deadline, p.beta);
}

/// Per-extra-attempt failure factor of S-Restart (Eq. 34): a fresh attempt
/// launched at tau_est misses the deadline iff its execution time exceeds
/// D - tau_est.
inline double s_restart_extra_failure(const JobParams& p) {
  return std::pow(p.t_min / (p.deadline - p.tau_est), p.beta);
}

/// Per-attempt failure factor of S-Resume (Eq. 47): each of the r+1 resumed
/// attempts processes the remaining (1 - phi_est) fraction and misses the
/// deadline iff (1 - phi) T > D - tau_est.
inline double s_resume_extra_failure(const JobParams& p) {
  return std::pow((1.0 - p.phi_est) * p.t_min / (p.deadline - p.tau_est),
                  p.beta);
}

/// Job PoCD from one task's success probability: tasks fail independently,
/// so the job succeeds iff every task does.
inline double job_from_task(double task_success, int num_tasks) {
  return std::pow(task_success, static_cast<double>(num_tasks));
}

/// Clone task failure: all r+1 independent copies must straggle.
/// Theorem 1: R_Clone = [1 - (t_min/D)^{beta (r+1)}]^N.
inline double clone_task_failure(double p_straggle, double r) {
  return std::pow(p_straggle, r + 1.0);
}

/// S-Restart task failure: original straggles AND each of the r restarted
/// attempts misses D - tau_est.
/// Theorem 3: R_S-Restart = [1 - t_min^{beta(r+1)} /
///                           (D^beta (D - tau_est)^{beta r})]^N.
inline double s_restart_task_failure(double p_straggle, double p_extra,
                                     double r) {
  return p_straggle * std::pow(p_extra, r);
}

/// S-Resume task failure: original straggles AND each of the r+1 resumed
/// attempts misses D - tau_est.
/// Theorem 5: R_S-Resume = [1 - (1-phi)^{beta(r+1)} t_min^{beta(r+2)} /
///                          (D^beta (D - tau_est)^{beta(r+1)})]^N.
inline double s_resume_task_failure(double p_straggle, double p_extra,
                                    double r) {
  return p_straggle * std::pow(p_extra, r + 1.0);
}

// --- Theorem 2: Clone ------------------------------------------------------

/// Lemma 1 winner mean E[min of r+1 i.i.d. Pareto(t_min, beta)] written as
/// t_min + t_min / (n_eff - 1) with n_eff = beta (r + 1) > 1.
inline double clone_winner_mean(const JobParams& p, double n_eff) {
  return p.t_min + p.t_min / (n_eff - 1.0);
}

/// Theorem 2: E_Clone(T) = N [ r tau_kill + winner ]. The r losing attempts
/// are each charged until tau_kill.
inline double clone_machine_time(const JobParams& p, double r) {
  const double n_eff = p.beta * (r + 1.0);
  CHRONOS_EXPECTS(n_eff > 1.0,
                  "Clone machine time requires beta * (r + 1) > 1");
  return static_cast<double>(p.num_tasks) *
         (r * p.tau_kill + clone_winner_mean(p, n_eff));
}

// --- Theorem 4: S-Restart --------------------------------------------------

/// Iteration cap for the 2F1 tail series of s_restart_winner_mean. The
/// per-term ratio is at most z = tau_est / deadline < 1, so the series always
/// converges; the cap only guards pathological jobs with tau_est within a
/// few parts in 1e5 of the deadline, where millions of terms would be needed.
inline constexpr int kWinnerSeriesMaxTerms = 2'000'000;

/// Relative truncation target of the tail series (well below the 1e-9
/// agreement requirement against the quadrature reference).
inline constexpr double kWinnerSeriesTol = 1e-17;

/// Closed form of E(W_hat), the Theorem 4 / Lemma 3 winner time (Eq. 45):
/// the quadrature-free replacement for s_restart_winner_time_reference.
/// See the derivation note in cost.h. Requires beta (r + 1) > 1; the
/// survival-product integral diverges otherwise.
inline double s_restart_winner_mean(const JobParams& p, double r) {
  const double beta = p.beta;
  const double q = beta * r;                // fresh-attempts tail exponent
  const double a = beta * (r + 1.0) - 1.0;  // combined tail decay minus 1
  CHRONOS_EXPECTS(a > 0.0,
                  "s_restart_winner_time requires beta * (r + 1) > 1: the "
                  "survival product decays like w^{-beta(r+1)}, so the "
                  "winner-time integral diverges otherwise");
  const double t_min = p.t_min;
  const double d_bar = p.deadline - p.tau_est;  // >= t_min by validate()
  // L = ln(d_bar / t_min), via log1p for accuracy when d_bar ~ t_min.
  const double log_ratio = std::log1p((d_bar - t_min) / t_min);
  // Piece 2, [t_min, d_bar]: int (t_min/w)^q dw
  //   = t_min (e^{(1-q)L} - 1) / (1-q)  =  t_min L expm1_ratio((1-q) L),
  // removable singularity at q = beta r = 1 handled by expm1_ratio.
  const double middle =
      t_min * log_ratio * expm1_ratio((1.0 - q) * log_ratio);
  // Piece 3, [d_bar, inf): t_min e^{(1-q)L} F / a with
  //   F = 2F1(1, beta; a + 1; z),  z = tau_est / deadline,
  // summed directly: term_0 = 1, term_{k+1} = term_k z (beta+k)/(a+1+k).
  // Every ratio is <= z < 1 (beta <= a + 1), so terms decay monotonically
  // and the remainder after term_k is bounded by term_k z / (1 - z).
  const double z = p.tau_est / p.deadline;
  double f = 0.0;
  double term = 1.0;
  bool converged = false;
  for (int k = 0; k < kWinnerSeriesMaxTerms; ++k) {
    f += term;
    if (term * z <= f * (1.0 - z) * kWinnerSeriesTol) {
      converged = true;
      break;
    }
    term *= z * (beta + k) / (a + 1.0 + k);
  }
  CHRONOS_ENSURES(converged,
                  "S-Restart winner-time tail series did not converge "
                  "(tau_est is pathologically close to the deadline)");
  const double tail = t_min * std::exp((1.0 - q) * log_ratio) * f / a;
  return t_min + middle + tail;
}

/// Expected time already sunk into the straggler plus the r speculative
/// attempts when the winner takes `winner` more time after tau_est:
/// tau_est + r (tau_kill - tau_est) + winner (Theorems 4 and 6).
inline double speculation_above(const JobParams& p, double r, double winner) {
  return p.tau_est + r * (p.tau_kill - p.tau_est) + winner;
}

/// Theorem 4 "above" branch: expected machine time charged when the original
/// attempt straggles. This is the single place the r == 0 case is selected:
/// callers establish r >= 0, so `r > 0.0` tests exactly "at least one
/// restarted attempt exists" (structural, not an epsilon compare). With no
/// restarts the straggler simply runs to completion (above_r0 = E[T | T > D]);
/// the general branch is continuous as r -> 0+ with that same limit
/// (pinned by ClosedForm.MachineTimeContinuousAsRApproachesZero).
inline double s_restart_above(const JobParams& p, double r, double above_r0) {
  if (r > 0.0) {
    return speculation_above(p, r, s_restart_winner_mean(p, r));
  }
  return above_r0;
}

/// Straggler-split total shared by Theorems 4 and 6:
/// N [ below (1 - p_straggle) + above p_straggle ].
inline double straggler_split_total(const JobParams& p, double below,
                                    double above, double p_straggle) {
  return static_cast<double>(p.num_tasks) *
         (below * (1.0 - p_straggle) + above * p_straggle);
}

/// Theorem 4: E_S-Restart(T) from the precomputed constants.
inline double s_restart_machine_time(const JobParams& p, double r,
                                     double p_straggle, double below,
                                     double above_r0) {
  return straggler_split_total(p, below, s_restart_above(p, r, above_r0),
                               p_straggle);
}

// --- Theorem 6: S-Resume ---------------------------------------------------

/// Eq. 56 winner mean (published closed form; a slight upper bound, see the
/// header note in cost.h):
/// E(W_new) = t_min (1 - phi)^{beta(r+1)} / (beta(r+1) - 1) + t_min.
inline double s_resume_winner_mean(const JobParams& p, double n_eff) {
  return p.t_min * std::pow(1.0 - p.phi_est, n_eff) / (n_eff - 1.0) +
         p.t_min;
}

/// Exact S-Resume winner mean using the true support (1 - phi) t_min:
/// min of r+1 copies of (1-phi) T is Pareto((1-phi) t_min, beta (r+1)).
inline double s_resume_winner_mean_exact(const JobParams& p, double n_eff) {
  return (1.0 - p.phi_est) * p.t_min * n_eff / (n_eff - 1.0);
}

/// Theorem 6 (published form): E_S-Resume(T) from precomputed constants.
inline double s_resume_machine_time(const JobParams& p, double r,
                                    double p_straggle, double below) {
  const double n_eff = p.beta * (r + 1.0);
  CHRONOS_EXPECTS(n_eff > 1.0,
                  "S-Resume machine time requires beta * (r + 1) > 1");
  const double above =
      speculation_above(p, r, s_resume_winner_mean(p, n_eff));
  return straggler_split_total(p, below, above, p_straggle);
}

}  // namespace chronos::core::kernels
