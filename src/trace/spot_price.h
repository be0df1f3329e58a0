// Spot-price substitute for the Amazon EC2 price history of §VII-B.
//
// The paper multiplies machine time by the spot price at job submission.
// Only the average level and mild variability of the price matter for the
// evaluation, so we model it as a mean-reverting AR(1) process sampled on a
// fixed step grid — deterministic given the seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace chronos::trace {

struct SpotPriceConfig {
  double base_price = 0.4;     ///< long-run mean (cost units per VM-second)
  double volatility = 0.05;    ///< per-step innovation std-dev (fraction)
  double reversion = 0.2;      ///< pull toward base per step, in (0, 1]
  double step_seconds = 3600;  ///< grid granularity (one EC2 price per hour)
  double horizon_seconds = 40.0 * 3600.0;
  std::uint64_t seed = 7;
};

class SpotPriceModel {
 public:
  explicit SpotPriceModel(SpotPriceConfig config = {});

  /// Price at absolute time t (clamped to the modelled horizon).
  double price_at(double t) const;

 private:
  SpotPriceConfig config_;
  std::vector<double> path_;
};

}  // namespace chronos::trace
