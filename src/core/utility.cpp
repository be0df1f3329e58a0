#include "core/utility.h"

#include <cmath>
#include <limits>

#include "core/analytic_context.h"

namespace chronos::core {

double utility_shaping(double x) {
  if (x <= 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return std::log10(x);
}

UtilityPoint evaluate_utility(Strategy strategy, const JobParams& params,
                              const Economics& econ, double r) {
  return AnalyticContext(strategy, params, econ).evaluate(r);
}

}  // namespace chronos::core
