// Validates the expected machine-time formulas (Theorems 2, 4, 6):
//  - Clone against Lemma 1 algebra,
//  - S-Restart's quadrature term against the paper's closed form (Eq. 45),
//  - S-Resume's published form as an upper bound on the exact one (see the
//    note in core/cost.h).
// test_conformance checks all three against the discrete-event scheduler.
#include "core/cost.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/numeric.h"
#include "stats/pareto.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_job;

TEST(CostClone, MatchesTheorem2Algebra) {
  const auto p = default_job();
  const double r = 2.0;
  const double n_eff = p.beta * (r + 1.0);
  const double expected =
      p.num_tasks * (r * p.tau_kill + p.t_min + p.t_min / (n_eff - 1.0));
  EXPECT_NEAR(machine_time(Strategy::kClone, p, r), expected, 1e-9);
}

TEST(CostClone, RZeroIsMeanTaskTime) {
  const auto p = default_job();
  const stats::Pareto attempt(p.t_min, p.beta);
  EXPECT_NEAR(machine_time(Strategy::kClone, p, 0.0),
              p.num_tasks * attempt.mean(), 1e-9);
}

TEST(CostClone, RejectsDivergentRegime) {
  auto p = default_job();
  p.beta = 0.9;
  EXPECT_THROW(machine_time(Strategy::kClone, p, 0.0), PreconditionError);
  // beta (r+1) = 1.8 > 1
  EXPECT_NO_THROW(machine_time(Strategy::kClone, p, 1.0));
}

TEST(CostClone, IncreasingInR) {
  const auto p = default_job();
  double prev = machine_time(Strategy::kClone, p, 0.0);
  for (double r = 1.0; r <= 6.0; r += 1.0) {
    const double cur = machine_time(Strategy::kClone, p, r);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(CostBelowDeadline, MatchesTruncatedParetoMean) {
  const auto p = default_job();
  const stats::Pareto attempt(p.t_min, p.beta);
  EXPECT_NEAR(expected_time_below_deadline(p),
              attempt.truncated_mean_below(p.deadline), 1e-12);
}

TEST(CostSRestart, WinnerTimeMatchesPaperClosedForm) {
  // Eq. 45 (valid for beta r != 1):
  //   E(W) = t_min/(br-1) - t_min^{br} / ((br-1) (D-tau)^{br-1})
  //        + int_{D-tau}^inf (D/(w+tau))^b (t_min/w)^{br} dw + t_min.
  const auto p = default_job();
  const double r = 2.0;
  const double b = p.beta;
  const double br = b * r;
  const double d_bar = p.deadline - p.tau_est;
  const double tail = numeric::integrate_to_infinity(
      [&](double w) {
        return std::pow(p.deadline / (w + p.tau_est), b) *
               std::pow(p.t_min / w, br);
      },
      d_bar);
  const double closed = p.t_min / (br - 1.0) -
                        std::pow(p.t_min, br) /
                            ((br - 1.0) * std::pow(d_bar, br - 1.0)) +
                        tail + p.t_min;
  EXPECT_NEAR(s_restart_winner_time(p, r), closed, 1e-6);
}

TEST(CostSRestart, WinnerTimeFiniteAtRemovableSingularity) {
  // beta r == 1 makes the closed form 0/0; the quadrature must be finite.
  auto p = default_job();
  p.beta = 1.5;
  const double r = 1.0 / 1.5;  // beta * r = 1
  const double w = s_restart_winner_time(p, r);
  EXPECT_TRUE(std::isfinite(w));
  EXPECT_GT(w, p.t_min * 0.5);
}

TEST(CostSResume, PublishedFormIsUpperBoundOnExact) {
  const auto p = default_job();
  for (double r = 0.0; r <= 5.0; r += 1.0) {
    EXPECT_GE(machine_time(Strategy::kSpeculativeResume, p, r),
              machine_time_s_resume_exact(p, r) - 1e-9)
        << "r=" << r;
  }
}

TEST(CostSResume, CheaperThanSRestartForSameR) {
  // S-Resume kills the straggler and its attempts process less data, so its
  // expected machine time is below S-Restart's (§VII observation).
  const auto p = default_job();
  for (double r = 1.0; r <= 4.0; r += 1.0) {
    EXPECT_LT(machine_time(Strategy::kSpeculativeResume, p, r),
              machine_time(Strategy::kSpeculativeRestart, p, r));
  }
}

TEST(CostNoSpeculation, MatchesParetoMean) {
  const auto p = default_job();
  EXPECT_NEAR(machine_time_no_speculation(p),
              p.num_tasks * p.t_min * p.beta / (p.beta - 1.0), 1e-9);
}

TEST(CostSRestart, RejectsHeavyTailWithoutFiniteMean) {
  auto p = default_job();
  p.beta = 1.0;
  EXPECT_THROW(machine_time(Strategy::kSpeculativeRestart, p, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace chronos::core
