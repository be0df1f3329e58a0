#include "trace/spot_price.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace chronos::trace {

SpotPriceModel::SpotPriceModel(SpotPriceConfig config) : config_(config) {
  CHRONOS_EXPECTS(config.base_price > 0.0, "base price must be positive");
  CHRONOS_EXPECTS(config.volatility >= 0.0, "volatility must be >= 0");
  CHRONOS_EXPECTS(config.reversion > 0.0 && config.reversion <= 1.0,
                  "reversion must lie in (0, 1]");
  CHRONOS_EXPECTS(config.step_seconds > 0.0, "step must be positive");
  CHRONOS_EXPECTS(config.horizon_seconds > 0.0, "horizon must be positive");
  const auto steps = static_cast<std::size_t>(
                         config.horizon_seconds / config.step_seconds) +
                     2;
  Rng rng(config.seed);
  path_.reserve(steps);
  double level = config.base_price;
  for (std::size_t i = 0; i < steps; ++i) {
    path_.push_back(level);
    const double noise =
        config.volatility * config.base_price * rng.normal();
    level += config.reversion * (config.base_price - level) + noise;
    // Spot prices never go non-positive; floor at 10% of base.
    level = std::max(level, 0.1 * config.base_price);
  }
}

double SpotPriceModel::price_at(double t) const {
  CHRONOS_EXPECTS(t >= 0.0, "time must be non-negative");
  const auto index = static_cast<std::size_t>(t / config_.step_seconds);
  return path_[std::min(index, path_.size() - 1)];
}

}  // namespace chronos::trace
