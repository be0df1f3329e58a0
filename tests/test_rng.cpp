#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace chronos {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.uniform();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 4.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 4.5);
  }
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(2.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(19);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.exponential(-1.0), PreconditionError);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, ParetoNeverBelowScale) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(5.0, 1.5), 5.0);
  }
}

TEST(Rng, ParetoMeanMatchesTheory) {
  Rng rng(37);
  const double t_min = 2.0;
  const double beta = 3.0;  // beta > 2: finite variance, stable estimate
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    sum += rng.pareto(t_min, beta);
  }
  EXPECT_NEAR(sum / n, t_min * beta / (beta - 1.0), 0.02);
}

TEST(Rng, ParetoTailProbabilityMatchesSurvival) {
  Rng rng(41);
  const double t_min = 1.0;
  const double beta = 1.5;
  const double threshold = 4.0;
  int exceed = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    exceed += rng.pareto(t_min, beta) > threshold ? 1 : 0;
  }
  const double expected = std::pow(t_min / threshold, beta);
  EXPECT_NEAR(static_cast<double>(exceed) / n, expected, 0.005);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(43);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliRejectsOutOfRangeP) {
  Rng rng(43);
  EXPECT_THROW(rng.bernoulli(-0.1), PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.1), PreconditionError);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng parent(47);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    equal += (parent() == child()) ? 1 : 0;
  }
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace chronos
