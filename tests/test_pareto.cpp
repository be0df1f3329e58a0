#include "stats/pareto.h"

#include <gtest/gtest.h>

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
      [&](double t) { return p.pdf(t); }, p.t_min());
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

TEST(Pareto, QuantileInvertsCdf) {
  const Pareto p(1.5, 1.3);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(p.cdf(p.quantile(q)), q, 1e-10);
  }
}

TEST(Pareto, QuantileRejectsOutOfRange) {
  const Pareto p(1.0, 1.0);
  EXPECT_THROW(p.quantile(1.0), PreconditionError);
  EXPECT_THROW(p.quantile(-0.1), PreconditionError);
}

TEST(Pareto, MeanClosedForm) {
  const Pareto p(2.0, 3.0);
  EXPECT_NEAR(p.mean(), 3.0, 1e-12);
  const Pareto heavy(2.0, 1.0);
  EXPECT_TRUE(std::isinf(heavy.mean()));
}

TEST(Pareto, VarianceClosedFormAndDivergence) {
  const Pareto p(1.0, 3.0);
  // Var = t^2 b / ((b-1)^2 (b-2)) = 3 / (4 * 1) = 0.75.
  EXPECT_NEAR(p.variance(), 0.75, 1e-12);
  EXPECT_TRUE(std::isinf(Pareto(1.0, 2.0).variance()));
}

TEST(Pareto, TruncatedMeanBelowMatchesNumericIntegration) {
  const Pareto p(2.0, 1.5);
  const double d = 10.0;
  const double numeric_mean =
      numeric::integrate([&](double t) { return t * p.pdf(t); }, p.t_min(),
                         d) /
      p.cdf(d);
  EXPECT_NEAR(p.truncated_mean_below(d), numeric_mean, 1e-8);
}

TEST(Pareto, TruncatedMeanBelowHandlesBetaOne) {
  const Pareto p(2.0, 1.0);
  const double d = 8.0;
  const double numeric_mean =
      numeric::integrate([&](double t) { return t * p.pdf(t); }, p.t_min(),
                         d) /
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

TEST(Pareto, MinOfNMeanLemma1) {
  const Pareto p(2.0, 1.5);
  // Lemma 1: E min of n = t_min * n beta / (n beta - 1).
  EXPECT_NEAR(p.min_of_n_mean(3), 2.0 * 4.5 / 3.5, 1e-12);
  EXPECT_THROW(p.min_of_n_mean(0), PreconditionError);
}

TEST(Pareto, MinOfNMeanMatchesSampling) {
  const Pareto p(1.0, 1.2);
  const int n = 4;
  Rng rng(99);
  double sum = 0.0;
  const int trials = 300000;
  for (int i = 0; i < trials; ++i) {
    double m = p.sample(rng);
    for (int k = 1; k < n; ++k) {
      m = std::min(m, p.sample(rng));
    }
    sum += m;
  }
  EXPECT_NEAR(sum / trials, p.min_of_n_mean(n), 0.01);
}

TEST(Pareto, MinOfNDistribution) {
  const Pareto p(2.0, 1.5);
  const Pareto m = p.min_of_n(3);
  EXPECT_EQ(m.t_min(), 2.0);
  EXPECT_NEAR(m.beta(), 4.5, 1e-12);
}

TEST(Pareto, ScaledVariate) {
  const Pareto p(2.0, 1.5);
  const Pareto s = p.scaled(0.5);
  EXPECT_NEAR(s.t_min(), 1.0, 1e-12);
  EXPECT_NEAR(s.beta(), 1.5, 1e-12);
  EXPECT_THROW(p.scaled(0.0), PreconditionError);
}

TEST(Pareto, SampleRespectsSupportAndTail) {
  const Pareto p(3.0, 1.8);
  Rng rng(3);
  int exceed = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = p.sample(rng);
    EXPECT_GE(x, 3.0);
    exceed += x > 9.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(exceed) / n, p.survival(9.0), 0.005);
}

}  // namespace
}  // namespace chronos::stats
