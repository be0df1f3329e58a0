// Validates the PoCD closed forms (Theorems 1, 3, 5) against hand
// computations and structural properties. test_conformance checks them
// against the discrete-event scheduler.
#include "core/pocd.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_job;

TEST(PocdClone, MatchesHandComputation) {
  auto p = default_job();
  // Per-attempt failure: (30/100)^1.5; task fail with r=1: that squared.
  const double p1 = std::pow(0.3, 1.5);
  const double expected = std::pow(1.0 - p1 * p1, 10);
  EXPECT_NEAR(pocd(Strategy::kClone, p, 1.0), expected, 1e-12);
}

TEST(PocdClone, RZeroEqualsNoSpeculation) {
  const auto p = default_job();
  EXPECT_NEAR(pocd(Strategy::kClone, p, 0.0), pocd_no_speculation(p), 1e-12);
}

TEST(PocdSRestart, RZeroEqualsNoSpeculation) {
  const auto p = default_job();
  EXPECT_NEAR(pocd(Strategy::kSpeculativeRestart, p, 0.0),
              pocd_no_speculation(p), 1e-12);
}

TEST(PocdSRestart, MatchesHandComputation) {
  const auto p = default_job();
  // Theorem 3 with r=2: 1 - t^{3b} / (D^b (D-tau)^{2b}) per task.
  const double b = p.beta;
  const double fail = std::pow(p.t_min, 3.0 * b) /
                      (std::pow(p.deadline, b) *
                       std::pow(p.deadline - p.tau_est, 2.0 * b));
  EXPECT_NEAR(pocd(Strategy::kSpeculativeRestart, p, 2.0),
              std::pow(1.0 - fail, 10), 1e-12);
}

TEST(PocdSResume, MatchesHandComputation) {
  const auto p = default_job();
  const double b = p.beta;
  const double r = 1.0;
  const double fail =
      std::pow(1.0 - p.phi_est, b * (r + 1.0)) *
      std::pow(p.t_min, b * (r + 2.0)) /
      (std::pow(p.deadline, b) *
       std::pow(p.deadline - p.tau_est, b * (r + 1.0)));
  EXPECT_NEAR(pocd(Strategy::kSpeculativeResume, p, r),
              std::pow(1.0 - fail, 10), 1e-12);
}

TEST(Pocd, RejectsNegativeR) {
  const auto p = default_job();
  EXPECT_THROW(pocd(Strategy::kClone, p, -1.0), PreconditionError);
}

TEST(Pocd, MonotoneIncreasingInR) {
  const auto p = default_job();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    double prev = pocd(s, p, 0.0);
    for (double r = 1.0; r <= 8.0; r += 1.0) {
      const double cur = pocd(s, p, r);
      EXPECT_GT(cur, prev) << to_string(s) << " r=" << r;
      prev = cur;
    }
  }
}

TEST(Pocd, MonotoneIncreasingInDeadline) {
  auto p = default_job();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    double prev = 0.0;
    for (double d = 90.0; d <= 200.0; d += 10.0) {
      p.deadline = d;
      const double cur = pocd(s, p, 2.0);
      EXPECT_GE(cur, prev) << to_string(s) << " D=" << d;
      prev = cur;
    }
  }
}

TEST(Pocd, DecreasesWithMoreTasks) {
  auto p = default_job();
  p.num_tasks = 1;
  const double one = pocd(Strategy::kClone, p, 1.0);
  p.num_tasks = 100;
  const double hundred = pocd(Strategy::kClone, p, 1.0);
  EXPECT_LT(hundred, one);
  EXPECT_NEAR(hundred, std::pow(one, 100.0), 1e-9);
}

TEST(Pocd, ApproachesOneForLargeR) {
  const auto p = default_job();
  EXPECT_GT(pocd(Strategy::kClone, p, 50.0), 1.0 - 1e-12);
}

}  // namespace
}  // namespace chronos::core
