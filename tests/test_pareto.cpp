#include "stats/pareto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/numeric.h"
#include "common/rng.h"

namespace chronos::stats {
namespace {

TEST(Pareto, RejectsInvalidParameters) {
  EXPECT_THROW(Pareto(0.0, 1.0), PreconditionError);
  EXPECT_THROW(Pareto(-1.0, 1.0), PreconditionError);
  EXPECT_THROW(Pareto(1.0, 0.0), PreconditionError);
}

TEST(Pareto, PdfZeroBelowScale) {
  const Pareto p(2.0, 1.5);
  EXPECT_EQ(p.pdf(1.9), 0.0);
  EXPECT_GT(p.pdf(2.1), 0.0);
}

TEST(Pareto, PdfIntegratesToOne) {
  const Pareto p(2.0, 1.5);
  const double mass = numeric::integrate_to_infinity(
      [&](double t) { return p.pdf(t); }, 2.0);
  EXPECT_NEAR(mass, 1.0, 1e-6);
}

TEST(Pareto, SurvivalAtScaleIsOne) {
  const Pareto p(3.0, 2.0);
  EXPECT_EQ(p.survival(3.0), 1.0);
  EXPECT_EQ(p.survival(1.0), 1.0);
}

TEST(Pareto, SurvivalMatchesClosedForm) {
  const Pareto p(3.0, 2.0);
  EXPECT_NEAR(p.survival(6.0), std::pow(0.5, 2.0), 1e-12);
  EXPECT_NEAR(p.cdf(6.0), 1.0 - std::pow(0.5, 2.0), 1e-12);
}

TEST(Pareto, MeanClosedForm) {
  const Pareto p(2.0, 3.0);
  EXPECT_NEAR(p.mean(), 3.0, 1e-12);
  const Pareto heavy(2.0, 1.0);
  EXPECT_TRUE(std::isinf(heavy.mean()));
}

TEST(Pareto, TruncatedMeanBelowMatchesNumericIntegration) {
  const Pareto p(2.0, 1.5);
  const double d = 10.0;
  const double numeric_mean =
      numeric::integrate([&](double t) { return t * p.pdf(t); }, 2.0, d) /
      p.cdf(d);
  EXPECT_NEAR(p.truncated_mean_below(d), numeric_mean, 1e-8);
}

TEST(Pareto, TruncatedMeanBelowHandlesBetaOne) {
  const Pareto p(2.0, 1.0);
  const double d = 8.0;
  const double numeric_mean =
      numeric::integrate([&](double t) { return t * p.pdf(t); }, 2.0, d) /
      p.cdf(d);
  EXPECT_NEAR(p.truncated_mean_below(d), numeric_mean, 1e-8);
}

TEST(Pareto, TruncatedMeanBelowStaysFiniteAtLargeBeta) {
  // pow(30, 400) overflows; the mean is beta t_min (1 - (t_min/d)^{beta-1})
  // / (beta - 1) over cdf(d), and (0.3)^399 and (0.3)^400 vanish beside 1.
  const Pareto p(30.0, 400.0);
  EXPECT_NEAR(p.truncated_mean_below(100.0), 30.0 * 400.0 / 399.0, 1e-12);
}

TEST(Pareto, TruncatedMeanAboveIsConditionalPareto) {
  const Pareto p(2.0, 2.5);
  // T | T > d ~ Pareto(d, beta)  =>  mean d*beta/(beta-1).
  EXPECT_NEAR(p.truncated_mean_above(10.0), 10.0 * 2.5 / 1.5, 1e-12);
}

TEST(Pareto, MinOfNMeanMatchesSampling) {
  // Lemma 1: the minimum of n i.i.d. Pareto(t_min, beta) copies is
  // Pareto(t_min, n beta), with mean t_min n beta / (n beta - 1).
  const ParetoSampler sample(1.0, 1.2);
  const int n = 4;
  Rng rng(99);
  double sum = 0.0;
  const int trials = 300000;
  for (int i = 0; i < trials; ++i) {
    double m = sample(rng);
    for (int k = 1; k < n; ++k) {
      m = std::min(m, sample(rng));
    }
    sum += m;
  }
  EXPECT_NEAR(sum / trials, Pareto(1.0, 1.2 * n).mean(), 0.01);
}

TEST(Pareto, SampleRespectsSupportAndTail) {
  const Pareto p(3.0, 1.8);
  const ParetoSampler sample(3.0, 1.8);
  Rng rng(3);
  int exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = sample(rng);
    EXPECT_GE(x, 3.0);
    exceed += x > 9.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, p.survival(9.0), 0.005);
}

}  // namespace
}  // namespace chronos::stats
