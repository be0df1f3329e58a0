// Theorem 7: PoCD orderings between the three strategies.
#include "core/comparison.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/pocd.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_job;

TEST(Theorem7, CloneAlwaysBeatsRestart) {
  auto p = default_job();
  for (double beta = 1.1; beta <= 1.9; beta += 0.2) {
    p.beta = beta;
    for (double r = 1.0; r <= 6.0; r += 1.0) {
      EXPECT_GT(pocd(Strategy::kClone, p, r),
                pocd(Strategy::kSpeculativeRestart, p, r))
          << "beta=" << beta << " r=" << r;
      EXPECT_LT(clone_vs_restart_ratio(p, r), 1.0);
    }
  }
}

TEST(Theorem7, CloneEqualsRestartAtRZero) {
  const auto p = default_job();
  EXPECT_NEAR(clone_vs_restart_ratio(p, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(pocd(Strategy::kClone, p, 0.0),
              pocd(Strategy::kSpeculativeRestart, p, 0.0), 1e-12);
}

TEST(Theorem7, ResumeBeatsRestart) {
  // Condition D - tau_est >= (1 - phi) t_min holds for all valid params.
  auto p = default_job();
  for (double phi = 0.0; phi <= 0.6; phi += 0.2) {
    p.phi_est = phi;
    for (double r = 0.0; r <= 5.0; r += 1.0) {
      EXPECT_GT(pocd(Strategy::kSpeculativeResume, p, r),
                pocd(Strategy::kSpeculativeRestart, p, r))
          << "phi=" << phi << " r=" << r;
      EXPECT_GT(restart_vs_resume_ratio(p, r), 1.0);
    }
  }
}

TEST(Theorem7, RatiosMatchDirectPocdComputation) {
  const auto p = default_job();
  const double n = static_cast<double>(p.num_tasks);
  for (double r = 0.0; r <= 4.0; r += 1.0) {
    // Per-task failure probability: 1 - R^{1/N} (the paper's Eqs. 57-59
    // notation (1-R)^{1/N} denotes these per-task quantities).
    const double clone_fail =
        1.0 - std::pow(pocd(Strategy::kClone, p, r), 1.0 / n);
    const double restart_fail =
        1.0 - std::pow(pocd(Strategy::kSpeculativeRestart, p, r), 1.0 / n);
    const double resume_fail =
        1.0 - std::pow(pocd(Strategy::kSpeculativeResume, p, r), 1.0 / n);
    EXPECT_NEAR(clone_vs_restart_ratio(p, r), clone_fail / restart_fail,
                1e-6 * clone_fail / restart_fail + 1e-12);
    EXPECT_NEAR(restart_vs_resume_ratio(p, r), restart_fail / resume_fail,
                1e-6 * restart_fail / resume_fail + 1e-12);
    EXPECT_NEAR(clone_vs_resume_ratio(p, r), clone_fail / resume_fail,
                1e-6 * clone_fail / resume_fail + 1e-12);
  }
}

class CloneVsResumeThreshold
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(CloneVsResumeThreshold, PredicateConsistentWithPocdOrdering) {
  const auto [beta, tau_est, phi] = GetParam();
  auto p = default_job();
  p.beta = beta;
  p.tau_est = tau_est;
  p.tau_kill = tau_est + 40.0;
  p.phi_est = phi;
  const double threshold = clone_beats_resume_threshold(p);
  for (double r = 0.0; r <= 10.0; r += 1.0) {
    const bool predicate = clone_beats_resume(p, r);
    const bool direct = pocd(Strategy::kClone, p, r) >
                        pocd(Strategy::kSpeculativeResume, p, r);
    if (std::abs(r - threshold) > 1e-6) {  // away from the boundary
      EXPECT_EQ(predicate, direct)
          << "beta=" << beta << " tau=" << tau_est << " phi=" << phi
          << " r=" << r << " threshold=" << threshold;
      EXPECT_EQ(r > threshold, direct);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CloneVsResumeThreshold,
    ::testing::Combine(::testing::Values(1.2, 1.5, 1.8),
                       ::testing::Values(20.0, 40.0, 60.0),
                       ::testing::Values(0.1, 0.3, 0.5)));

TEST(Theorem7, ResumeWinsForSmallR) {
  // The paper's intuition: for small r, killing the straggler and resuming
  // beats cloning from scratch.
  auto p = default_job();
  p.phi_est = 0.4;
  EXPECT_GT(pocd(Strategy::kSpeculativeResume, p, 0.0),
            pocd(Strategy::kClone, p, 0.0));
}

}  // namespace
}  // namespace chronos::core
