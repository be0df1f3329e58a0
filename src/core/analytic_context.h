// The analytic evaluator: PoCD, expected machine time and utility of one
// (strategy, params, econ) triple — Theorems 1–6 and Eq. 23.
//
// This is the only code that turns a strategy and its parameters into R(r)
// and E(T). The free functions pocd() and machine_time() build a context
// per call, and evaluate(r) is the one-point utility; Algorithm 1 builds one
// per search and evaluates U(r) at dozens of integers through it. Construction
// hoists all r-independent work (straggler probability, the per-extra-attempt
// failure factor, the truncated Pareto means behind E(T)), so each
// evaluation is reduced to the r-dependent remainder: a couple of pow calls
// and a handful of multiplies. The formulas themselves live in
// core/kernels.h.
#pragma once

#include <cstdint>

#include "core/model.h"
#include "core/utility.h"

namespace chronos::core {

class AnalyticContext {
 public:
  /// Validates params/econ once. PoCD is defined for every beta > 0; the
  /// E(T)-only constants of S-Restart / S-Resume are computed only for
  /// beta > 1, where their expected machine time is finite.
  AnalyticContext(Strategy strategy, const JobParams& params,
                  const Economics& econ = {});

  const JobParams& params() const { return params_; }
  const Economics& econ() const { return econ_; }

  /// Concavity threshold Gamma (Theorem 8): gamma_threshold(strategy,
  /// params), computed on each call.
  double gamma() const;

  /// PoCD R(r) (Theorems 1, 3, 5). Requires r >= 0.
  double pocd(double r) const;

  /// Expected machine time E(T) (Theorems 2, 4, 6). Requires r >= 0;
  /// S-Restart / S-Resume require beta > 1, and Clone / S-Resume
  /// beta * (r + 1) > 1 (the expectation diverges otherwise).
  double machine_time(double r) const;

  /// Full utility point U(r) = f(R(r) - R_min) - theta * C * E(T).
  UtilityPoint evaluate(double r) const;

  /// Number of evaluate() calls made through this context. Lets tests prove
  /// the optimizer's memoization never evaluates the same r twice.
  std::int64_t evaluations() const { return evaluations_; }

 private:
  Strategy strategy_;
  JobParams params_;
  Economics econ_;
  double p_straggle_ = 0.0;  ///< pow(t_min / D, beta): P(T > D)
  double p_extra_ = 0.0;     ///< per-extra-attempt failure factor (S-R / S-Res)
  double below_ = 0.0;       ///< E[T | T <= D] (S-R / S-Res, beta > 1)
  double above_r0_ = 0.0;    ///< E[T | T > D] (S-Restart with r == 0, beta > 1)
  mutable std::int64_t evaluations_ = 0;
};

}  // namespace chronos::core
