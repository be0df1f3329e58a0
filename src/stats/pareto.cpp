#include "stats/pareto.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace chronos::stats {

Pareto::Pareto(double t_min, double beta) : t_min_(t_min), beta_(beta) {
  CHRONOS_EXPECTS(t_min > 0.0, "Pareto t_min must be positive");
  CHRONOS_EXPECTS(beta > 0.0, "Pareto beta must be positive");
}

double Pareto::pdf(double t) const {
  if (t < t_min_) {
    return 0.0;
  }
  return beta_ * std::pow(t_min_, beta_) / std::pow(t, beta_ + 1.0);
}

double Pareto::cdf(double t) const { return 1.0 - survival(t); }

double Pareto::survival(double t) const {
  if (t <= t_min_) {
    return 1.0;
  }
  return std::pow(t_min_ / t, beta_);
}

double Pareto::mean() const {
  if (beta_ <= 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return t_min_ * beta_ / (beta_ - 1.0);
}

double Pareto::truncated_mean_below(double d) const {
  CHRONOS_EXPECTS(d > t_min_, "truncated_mean_below requires d > t_min");
  // E[T | T <= d] = (int_{t_min}^{d} t f(t) dt) / F(d).
  const double f_d = cdf(d);
  CHRONOS_ENSURES(f_d > 0.0, "truncation mass must be positive");
  if (beta_ == 1.0) {
    // int t f(t) dt = t_min * ln(d / t_min).
    return t_min_ * std::log(d / t_min_) / f_d;
  }
  double num = beta_ * std::pow(t_min_, beta_) *
               (std::pow(d, 1.0 - beta_) - std::pow(t_min_, 1.0 - beta_)) /
               (1.0 - beta_);
  if (!std::isfinite(num)) {
    // t_min^beta overflowed or a t^{1-beta} did (large beta): the same
    // integral with t_min^beta divided through,
    // beta t_min (1 - (t_min / d)^{beta-1}) / (beta - 1).
    num = beta_ * t_min_ * (1.0 - std::pow(t_min_ / d, beta_ - 1.0)) /
          (beta_ - 1.0);
  }
  return num / f_d;
}

double Pareto::truncated_mean_above(double d) const {
  CHRONOS_EXPECTS(d >= t_min_, "truncated_mean_above requires d >= t_min");
  CHRONOS_EXPECTS(beta_ > 1.0,
                  "truncated_mean_above requires beta > 1 for finite mean");
  // Memoryless-like scaling of Pareto above d: T | T > d ~ Pareto(d, beta).
  return d * beta_ / (beta_ - 1.0);
}

}  // namespace chronos::stats
