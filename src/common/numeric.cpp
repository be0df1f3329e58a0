#include "common/numeric.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

#include "common/error.h"

namespace chronos::numeric {

namespace {

struct SimpsonEstimate {
  double value = 0.0;
  double fa = 0.0;
  double fm = 0.0;
  double fb = 0.0;
};

SimpsonEstimate simpson(double a, double b, double fa, double fm, double fb) {
  SimpsonEstimate est;
  est.fa = fa;
  est.fm = fm;
  est.fb = fb;
  est.value = (b - a) / 6.0 * (fa + 4.0 * fm + fb);
  return est;
}

double adaptive(const std::function<double(double)>& f, double a, double b,
                double fa, double fm, double fb, double whole, double tol,
                int depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = (m - a) / 6.0 * (fa + 4.0 * flm + fm);
  const double right = (b - m) / 6.0 * (fm + 4.0 * frm + fb);
  const double delta = left + right - whole;
  // 15 = (4^2 - 1): classic Richardson error factor for Simpson's rule.
  if (depth <= 0 || std::abs(delta) <= 15.0 * tol) {
    return left + right + delta / 15.0;
  }
  return adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) +
         adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b,
                 double tol) {
  CHRONOS_EXPECTS(a <= b, "integration interval must satisfy a <= b");
  if (a == b) {
    return 0.0;
  }
  const double fa = f(a);
  const double m = 0.5 * (a + b);
  const double fm = f(m);
  const double fb = f(b);
  const auto whole = simpson(a, b, fa, fm, fb);
  return adaptive(f, a, b, fa, fm, fb, whole.value, tol, 52);
}

double integrate_to_infinity(const std::function<double(double)>& f, double a,
                             double tol) {
  // Substitute x = a + t/(1-t), dx = dt/(1-t)^2, mapping [a, inf) to [0, 1).
  const auto g = [&f, a](double t) {
    const double one_minus = 1.0 - t;
    if (one_minus <= 0.0) {
      return 0.0;  // integrand must vanish at infinity for convergence
    }
    const double x = a + t / one_minus;
    return f(x) / (one_minus * one_minus);
  };
  // Stop just short of t = 1; the decay requirement makes the remainder
  // negligible relative to tol.
  return integrate(g, 0.0, 1.0 - 1e-12, tol);
}

std::string format_double(double v) {
  if (std::isnan(v)) {
    return "nan";
  }
  if (std::isinf(v)) {
    return v < 0 ? "-inf" : "inf";
  }
  char buffer[40];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v);
  CHRONOS_ENSURES(result.ec == std::errc(), "to_chars failed");
  return std::string(buffer, result.ptr);
}

std::string format_double_fixed(double v, int precision) {
  CHRONOS_EXPECTS(precision >= 0, "precision must be >= 0");
  if (std::isnan(v)) {
    return "nan";
  }
  if (std::isinf(v)) {
    return v < 0 ? "-inf" : "+inf";
  }
  // Fixed form of a large magnitude needs one char per integer digit; fall
  // back to the shortest form in the (never meaningful) overflow case.
  char buffer[512];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                    std::chars_format::fixed, precision);
  if (result.ec != std::errc()) {
    return format_double(v);
  }
  return std::string(buffer, result.ptr);
}

std::string format_double_g(double v) {
  if (std::isnan(v)) {
    return "nan";
  }
  if (std::isinf(v)) {
    return v < 0 ? "-inf" : "inf";
  }
  char buffer[40];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                    std::chars_format::general, 6);
  CHRONOS_ENSURES(result.ec == std::errc(), "to_chars failed");
  return std::string(buffer, result.ptr);
}

bool parse_double(std::string_view text, double& out) {
  if (!text.empty() && text.front() == '+') {
    text.remove_prefix(1);
  }
  if (text.empty()) {
    return false;
  }
  double parsed = 0.0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (result.ec != std::errc() || result.ptr != text.data() + text.size()) {
    return false;
  }
  out = parsed;
  return true;
}

void append_hex_double(std::string& out, double v) {
  char buffer[48];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), v,
                                    std::chars_format::hex);
  CHRONOS_ENSURES(result.ec == std::errc(), "hex to_chars failed");
  out.append(buffer, result.ptr);
}

bool parse_hex_double(std::string_view text, double& out) {
  if (text.empty()) {
    return false;
  }
  bool negative = false;
  if (text.front() == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  if (text == "inf" || text == "nan") {
    out = text == "inf" ? std::numeric_limits<double>::infinity()
                        : std::numeric_limits<double>::quiet_NaN();
  } else {
    const auto result = std::from_chars(
        text.data(), text.data() + text.size(), out, std::chars_format::hex);
    if (result.ec != std::errc() ||
        result.ptr != text.data() + text.size()) {
      return false;
    }
  }
  if (negative) {
    out = -out;
  }
  return true;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  const auto result =
      std::to_chars(buffer, buffer + sizeof(buffer), value, 16);
  return std::string(buffer, result.ptr);
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) {
    return false;
  }
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc() &&
         result.ptr == text.data() + text.size();
}

}  // namespace chronos::numeric
