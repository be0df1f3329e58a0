// Expected machine running time E(T) of a job — Theorems 2, 4 and 6.
//
// The paper measures execution cost as C * E(T), where E(T) is the total
// (virtual) machine time consumed by all attempts of all N tasks, including
// the speculative attempts that are killed at tau_kill.
//
// S-Resume note: the paper's closed form (Theorem 6, Eq. 56) integrates the
// survival of the resumed attempts from t_min even though their support
// starts at (1 - phi) t_min, which makes the published expression a slight
// upper bound on the exact expectation. Both are provided; benches use the
// paper's form, and test_conformance checks the exact one against the
// discrete-event scheduler.
#pragma once

#include "core/model.h"

namespace chronos::core {

/// E(T) of `strategy` with r extra attempts by the paper's formulas
/// (Theorems 2, 4 and 6; the S-Restart winner time in closed form, see
/// s_restart_winner_time; S-Resume in the published form), evaluated by
/// AnalyticContext (core/analytic_context.h). Requires r >= 0 and valid
/// params; S-Restart / S-Resume require beta > 1, and Clone / S-Resume
/// beta * (r + 1) > 1 (the expectation diverges otherwise).
double machine_time(Strategy strategy, const JobParams& params, double r);

/// Exact S-Resume expectation using the true support (1-phi) t_min of the
/// resumed attempts: E(W_new) = (1-phi) t_min beta(r+1) / (beta(r+1) - 1).
double machine_time_s_resume_exact(const JobParams& params, double r);

/// Machine time with no speculation: N * E[T] = N * t_min * beta/(beta - 1).
/// Requires beta > 1.
double machine_time_no_speculation(const JobParams& params);

/// E[T_j | T_j,1 <= D]: truncated-Pareto mean below the deadline — the
/// no-straggler branch shared by Theorems 4 and 6.
double expected_time_below_deadline(const JobParams& params);

// E(W_hat_all) of Theorem 4 / Eq. 45: expected remaining running time, from
// tau_est, of the fastest among {original | T1 > D, r restarted attempts}.
//
// Closed-form derivation (Lemma 3 / Theorem 4 of the paper). Conditioned on
// the original attempt missing the deadline, its total execution time is
// Pareto(D, beta) (Lemma 3), so its remaining time past tau_est survives as
//   S_orig(w) = 1                           for w <  D - tau_est,
//               (D / (w + tau_est))^beta    for w >= D - tau_est,
// while each of the r fresh restarts survives as
//   S_fresh(w) = 1                 for w <  t_min,
//                (t_min / w)^beta  for w >= t_min.
// E(W_hat) = int_0^inf S_orig(w) S_fresh(w)^r dw splits at the two knees
// t_min <= D - tau_est =: d_bar (JobParams::validate() guarantees the
// order), with q = beta r, a = beta (r + 1) - 1 and L = ln(d_bar / t_min):
//
//   [0, t_min]      the product is exactly 1:        t_min
//   [t_min, d_bar]  int (t_min/w)^q dw
//                     = t_min (e^{(1-q) L} - 1) / (1 - q)
//                     = t_min L expm1((1-q) L) / ((1-q) L),
//                   whose removable singularity at beta r == 1 (the 0/0 of
//                   the published Eq. 45) is filled by the stable
//                   expm1/log1p form.
//   [d_bar, inf)    int (D/(w+tau))^beta (t_min/w)^q dw. Substituting
//                   u = w + tau and expanding (1 - tau/u)^{-q} yields
//                   t_min e^{(1-q) L} / a * 2F1(a, q; a+1; tau/D); the
//                   Euler transformation 2F1(a, q; a+1; z) =
//                   (1-z)^{1-q} 2F1(1, beta; a+1; z) turns it into
//                   t_min e^{(1-q) L} / a * sum_k c_k,  c_0 = 1,
//                   c_{k+1} = c_k z (beta+k)/(a+1+k),  z = tau_est / D,
//                   a positive series whose per-term ratio is <= z < 1 from
//                   the first term on — no growth phase, geometric
//                   convergence for every valid parameter set.
//
// The integral (and hence E(W_hat)) is finite iff a > 0, i.e.
// beta (r + 1) > 1; both implementations reject the divergent regime.
/// Requires beta * (r + 1) > 1 (throws PreconditionError otherwise).
double s_restart_winner_time(const JobParams& params, double r);

/// Adaptive-quadrature reference implementation of s_restart_winner_time
/// (the pre-closed-form code path). Kept for validation: the closed form is
/// tolerance-checked against it across a randomized parameter grid in
/// tests/test_cost_closedform.cpp. Same preconditions as the closed form.
double s_restart_winner_time_reference(const JobParams& params, double r);

}  // namespace chronos::core
