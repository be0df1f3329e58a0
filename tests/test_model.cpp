#include "core/model.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "test_util.h"

namespace chronos::core {
namespace {

TEST(JobParams, ValidDefaultsPass) {
  EXPECT_NO_THROW(chronos::testing::default_job().validate());
}

TEST(JobParams, RejectsNonPositiveTasks) {
  auto p = chronos::testing::default_job();
  p.num_tasks = 0;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(JobParams, RejectsDeadlineNotAboveTmin) {
  auto p = chronos::testing::default_job();
  p.deadline = p.t_min;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(JobParams, RejectsTauEstBeyondDeadline) {
  auto p = chronos::testing::default_job();
  p.tau_est = p.deadline;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(JobParams, RejectsKillBeforeEst) {
  auto p = chronos::testing::default_job();
  p.tau_kill = p.tau_est - 1.0;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(JobParams, RejectsPhiOutOfRange) {
  auto p = chronos::testing::default_job();
  p.phi_est = 1.0;
  EXPECT_THROW(p.validate(), PreconditionError);
  p.phi_est = -0.1;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(JobParams, RejectsLateSpeculationWindow) {
  auto p = chronos::testing::default_job();
  // deadline - tau_est < t_min: a fresh attempt can never meet the deadline.
  p.tau_est = p.deadline - p.t_min + 1.0;
  p.tau_kill = p.tau_est + 1.0;
  EXPECT_THROW(p.validate(), PreconditionError);
}

TEST(Economics, ValidDefaultsPass) {
  EXPECT_NO_THROW(chronos::testing::default_econ().validate());
}

TEST(Economics, RejectsNegativePriceOrTheta) {
  auto e = chronos::testing::default_econ();
  e.price = -1.0;
  EXPECT_THROW(e.validate(), PreconditionError);
  e = chronos::testing::default_econ();
  e.theta = -1.0;
  EXPECT_THROW(e.validate(), PreconditionError);
}

TEST(Economics, RejectsRminOutOfRange) {
  auto e = chronos::testing::default_econ();
  e.r_min = 1.0;
  EXPECT_THROW(e.validate(), PreconditionError);
}

TEST(DefaultPhiEst, MatchesConditionalExpectation) {
  const auto p = chronos::testing::default_job();
  // tau_est * beta / ((beta + 1) * D) = 40 * 1.5 / (2.5 * 100) = 0.24.
  EXPECT_NEAR(default_phi_est(p), 0.24, 1e-12);
}

TEST(DefaultPhiEst, BelowOneForValidParams) {
  auto p = chronos::testing::default_job();
  for (double tau = 0.0; tau < p.deadline - p.t_min; tau += 10.0) {
    p.tau_est = tau;
    EXPECT_GE(default_phi_est(p), 0.0);
    EXPECT_LT(default_phi_est(p), 1.0);
  }
}

TEST(StrategyNames, MatchPaper) {
  EXPECT_EQ(to_string(Strategy::kClone), "Clone");
  EXPECT_EQ(to_string(Strategy::kSpeculativeRestart), "S-Restart");
  EXPECT_EQ(to_string(Strategy::kSpeculativeResume), "S-Resume");
}

}  // namespace
}  // namespace chronos::core
