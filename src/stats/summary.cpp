#include "stats/summary.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace chronos::stats {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

double proportion_ci_halfwidth(std::uint64_t successes, std::uint64_t trials) {
  CHRONOS_EXPECTS(trials > 0, "proportion CI needs at least one trial");
  CHRONOS_EXPECTS(successes <= trials, "successes cannot exceed trials");
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  return 1.96 * std::sqrt(std::max(p * (1.0 - p), 1e-12) / n);
}

}  // namespace chronos::stats
