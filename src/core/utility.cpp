#include "core/utility.h"

#include <cmath>
#include <limits>

namespace chronos::core {

double utility_shaping(double x) {
  if (x <= 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return std::log10(x);
}

}  // namespace chronos::core
