#include "stats/summary.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace chronos::stats {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleValueVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(ProportionCi, ShrinksWithTrials) {
  const double wide = proportion_ci_halfwidth(50, 100);
  const double narrow = proportion_ci_halfwidth(5000, 10000);
  EXPECT_GT(wide, narrow);
  EXPECT_NEAR(wide, 1.96 * std::sqrt(0.25 / 100.0), 1e-9);
}

TEST(ProportionCi, RejectsInvalid) {
  EXPECT_THROW(proportion_ci_halfwidth(1, 0), PreconditionError);
  EXPECT_THROW(proportion_ci_halfwidth(5, 4), PreconditionError);
}

}  // namespace
}  // namespace chronos::stats
