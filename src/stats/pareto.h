// Pareto (Type I) distribution — the task-execution-time model the paper
// assumes throughout (Eq. 2): f(t) = beta * t_min^beta / t^{beta+1} for
// t >= t_min.
//
// Includes the closed forms the analytic core relies on: survival/cdf,
// mean and truncated means (used in Theorems 4 and 6, Case 1). Sampling
// lives in common/rng.h (ParetoSampler, Rng::pareto).
#pragma once

namespace chronos::stats {

class Pareto {
 public:
  /// Requires t_min > 0 and beta > 0.
  Pareto(double t_min, double beta);

  /// Probability density at t (0 for t < t_min).
  double pdf(double t) const;

  /// P(T <= t).
  double cdf(double t) const;

  /// P(T > t) = (t_min / t)^beta for t >= t_min, else 1.
  double survival(double t) const;

  /// E[T] = t_min * beta / (beta - 1); requires beta > 1 (infinite otherwise).
  double mean() const;

  /// E[T | T <= d] for d > t_min (Theorems 4/6, Case 1). Handles beta == 1.
  double truncated_mean_below(double d) const;

  /// E[T | T > d] for d >= t_min; requires beta > 1.
  double truncated_mean_above(double d) const;

 private:
  double t_min_;
  double beta_;
};

}  // namespace chronos::stats
