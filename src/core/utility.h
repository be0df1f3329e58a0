// Net utility U(r) = f(R(r) - R_min) - theta * C * E(T)  (§V, Eq. 23), with
// the paper's logarithmic utility f(x) = lg(x) (base-10, proportional
// fairness). U is -infinity whenever R(r) <= R_min.
#pragma once

#include "core/model.h"

namespace chronos::core {

/// A single evaluation of the objective at a given r
/// (AnalyticContext::evaluate, core/analytic_context.h).
struct UtilityPoint {
  double r = 0.0;
  double pocd = 0.0;          ///< R(r)
  double machine_time = 0.0;  ///< E(T)
  double cost = 0.0;          ///< C * E(T)
  double utility = 0.0;       ///< U(r); -infinity if pocd <= r_min
};

/// The utility shaping function f(x) = log10(x), -infinity for x <= 0.
double utility_shaping(double x);

}  // namespace chronos::core
