// Streaming summary statistics for simulation metrics.
#pragma once

#include <cstdint>

namespace chronos::stats {

/// Welford streaming accumulator: numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Normal-approximation confidence half-width for a Bernoulli proportion
/// with `successes` out of `trials` at ~95% confidence.
double proportion_ci_halfwidth(std::uint64_t successes, std::uint64_t trials);

}  // namespace chronos::stats
