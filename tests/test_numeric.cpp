#include "common/numeric.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.h"

namespace chronos::numeric {
namespace {

TEST(Integrate, Polynomial) {
  // int_0^2 (3x^2 + 1) dx = 8 + 2 = 10.
  const double v = integrate([](double x) { return 3.0 * x * x + 1.0; }, 0.0,
                             2.0);
  EXPECT_NEAR(v, 10.0, 1e-9);
}

TEST(Integrate, EmptyIntervalIsZero) {
  EXPECT_EQ(integrate([](double x) { return x; }, 1.0, 1.0), 0.0);
}

TEST(Integrate, RejectsInvertedInterval) {
  EXPECT_THROW(integrate([](double x) { return x; }, 2.0, 1.0),
               PreconditionError);
}

TEST(Integrate, ExponentialDecay) {
  // int_0^5 e^-x dx = 1 - e^-5.
  const double v = integrate([](double x) { return std::exp(-x); }, 0.0, 5.0);
  EXPECT_NEAR(v, 1.0 - std::exp(-5.0), 1e-9);
}

TEST(Integrate, OscillatingFunction) {
  // int_0^pi sin x dx = 2.
  const double v =
      integrate([](double x) { return std::sin(x); }, 0.0, std::numbers::pi);
  EXPECT_NEAR(v, 2.0, 1e-8);
}

TEST(IntegrateToInfinity, ParetoTail) {
  // int_a^inf a^b / x^b dx = a / (b - 1) for b > 1, a > 0 (with a = 2,
  // b = 2.5: 2 / 1.5).
  const double a = 2.0;
  const double b = 2.5;
  const double v = integrate_to_infinity(
      [&](double x) { return std::pow(a / x, b); }, a);
  EXPECT_NEAR(v, a / (b - 1.0), 1e-6);
}

TEST(IntegrateToInfinity, ExponentialTail) {
  // int_1^inf e^-x dx = e^-1.
  const double v =
      integrate_to_infinity([](double x) { return std::exp(-x); }, 1.0);
  EXPECT_NEAR(v, std::exp(-1.0), 1e-8);
}

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(format_double(0.3), "0.3");
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(1e-6), "1e-06");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-2.5), "-2.5");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_double(std::nan("")), "nan");
  // Round trip is exact for every representable value we emit.
  for (const double v : {0.1, 1.0 / 3.0, 1e300, 5e-324, 123456.789}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double(format_double(v), back));
    EXPECT_EQ(back, v);
  }
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double_fixed(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_double_fixed(2.0, 0), "2");
  EXPECT_EQ(format_double_fixed(-1.2345, 2), "-1.23");
  EXPECT_EQ(format_double_fixed(std::numeric_limits<double>::infinity(), 3),
            "+inf");
  EXPECT_EQ(format_double_fixed(-std::numeric_limits<double>::infinity(), 3),
            "-inf");
  EXPECT_EQ(format_double_fixed(std::nan(""), 1), "nan");
  // Enormous magnitudes fall back to the shortest form instead of failing.
  EXPECT_FALSE(format_double_fixed(1e300, 3).empty());
  EXPECT_THROW(format_double_fixed(1.0, -1), PreconditionError);
}

TEST(FormatDouble, GeneralSixDigitsMatchesPrintfG) {
  EXPECT_EQ(format_double_g(1e-6), "1e-06");
  EXPECT_EQ(format_double_g(0.0001), "0.0001");
  EXPECT_EQ(format_double_g(1.0 / 3.0), "0.333333");
  EXPECT_EQ(format_double_g(123456789.0), "1.23457e+08");
  EXPECT_EQ(format_double_g(100.0), "100");
}

TEST(ParseDouble, AcceptsFullStringsOnly) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("1e-6", v));
  EXPECT_DOUBLE_EQ(v, 1e-6);
  EXPECT_TRUE(parse_double("+2.5", v));
  EXPECT_DOUBLE_EQ(v, 2.5);
  EXPECT_TRUE(parse_double("-inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("+", v));
  EXPECT_FALSE(parse_double("1.5x", v));
  EXPECT_FALSE(parse_double("x1.5", v));
  EXPECT_FALSE(parse_double("1,5", v));  // never locale-dependent
}

}  // namespace
}  // namespace chronos::numeric
