// Net utility (Eq. 23) and the Theorem-8 concavity thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/analytic_context.h"
#include "core/cost.h"
#include "core/pocd.h"
#include "core/thresholds.h"
#include "core/utility.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_econ;
using chronos::testing::default_job;

TEST(UtilityShaping, LogBase10) {
  EXPECT_NEAR(utility_shaping(1.0), 0.0, 1e-12);
  EXPECT_NEAR(utility_shaping(0.1), -1.0, 1e-12);
  EXPECT_NEAR(utility_shaping(100.0), 2.0, 1e-12);
}

TEST(UtilityShaping, NegativeInfinityAtOrBelowZero) {
  EXPECT_TRUE(std::isinf(utility_shaping(0.0)));
  EXPECT_LT(utility_shaping(0.0), 0.0);
  EXPECT_TRUE(std::isinf(utility_shaping(-0.5)));
}

TEST(EvaluateUtility, CombinesPocdAndCost) {
  const auto p = default_job();
  const auto e = default_econ();
  const auto point = AnalyticContext(Strategy::kClone, p, e).evaluate(2.0);
  EXPECT_NEAR(point.pocd, pocd(Strategy::kClone, p, 2.0), 1e-12);
  EXPECT_NEAR(point.machine_time, machine_time(Strategy::kClone, p, 2.0),
              1e-12);
  EXPECT_NEAR(point.cost, e.price * point.machine_time, 1e-12);
  EXPECT_NEAR(point.utility,
              std::log10(point.pocd - e.r_min) - e.theta * point.cost, 1e-12);
}

TEST(EvaluateUtility, InfeasibleWhenPocdBelowRmin) {
  const auto p = default_job();
  auto e = default_econ();
  e.r_min = 0.999;  // unreachable with r = 0
  const auto point = AnalyticContext(Strategy::kClone, p, e).evaluate(0.0);
  EXPECT_TRUE(std::isinf(point.utility));
  EXPECT_LT(point.utility, 0.0);
}

TEST(Thresholds, CloneMatchesClosedForm) {
  const auto p = default_job();
  const double base = p.t_min / p.deadline;
  const double expected =
      -std::log(static_cast<double>(p.num_tasks)) / std::log(base) / p.beta -
      1.0;
  EXPECT_NEAR(gamma_clone(p), expected, 1e-12);
}

TEST(Thresholds, TypicallySmall) {
  // The paper notes Gamma contains "typically less than 4" integer points.
  const auto p = default_job();
  EXPECT_LT(gamma_clone(p), 4.0);
  EXPECT_LT(gamma_s_restart(p), 4.0);
  EXPECT_LT(gamma_s_resume(p), 6.0);
}

TEST(Thresholds, ConcaveStartNonNegative) {
  const auto p = default_job();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const double gamma = gamma_threshold(s, p);
    EXPECT_GE(concave_start(gamma), 0);
    EXPECT_GE(static_cast<double>(concave_start(gamma)), gamma);
  }
}

TEST(Thresholds, ConcaveStartSaturates) {
  // A Gamma beyond the range of long long (or NaN) must not reach the
  // double -> integer cast, which is undefined behaviour there.
  constexpr auto kMax = std::numeric_limits<long long>::max();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(concave_start(kInf), kMax);
  EXPECT_EQ(concave_start(1e30), kMax);
  EXPECT_EQ(concave_start(std::numeric_limits<double>::quiet_NaN()), kMax);
  EXPECT_EQ(concave_start(-kInf), 0);
  EXPECT_EQ(concave_start(-1e30), 0);
  EXPECT_EQ(concave_start(2.5), 3);
  EXPECT_EQ(concave_start(3.0), 3);
}

TEST(Thresholds, InfiniteWhenRestartsCannotMeetTheDeadline) {
  // D - tau_est == t_min (and phi == 0 for S-Resume): the logarithm base of
  // Theorem 8 is 1 and a fresh attempt never meets the deadline.
  auto p = default_job();
  p.deadline = p.t_min + p.tau_est;
  EXPECT_EQ(gamma_s_restart(p), std::numeric_limits<double>::infinity());
  p.phi_est = 0.0;
  EXPECT_EQ(gamma_s_resume(p), std::numeric_limits<double>::infinity());
  EXPECT_EQ(concave_start(gamma_threshold(Strategy::kSpeculativeRestart, p)),
            std::numeric_limits<long long>::max());
}

TEST(Thresholds, DispatchConsistent) {
  const auto p = default_job();
  EXPECT_EQ(gamma_threshold(Strategy::kClone, p), gamma_clone(p));
  EXPECT_EQ(gamma_threshold(Strategy::kSpeculativeRestart, p),
            gamma_s_restart(p));
  EXPECT_EQ(gamma_threshold(Strategy::kSpeculativeResume, p),
            gamma_s_resume(p));
}

// --- Theorem 8: numerical concavity beyond Gamma ---------------------------

struct ConcavityCase {
  Strategy strategy;
  double beta;
  double deadline;
  int num_tasks;
};

class UtilityConcavity : public ::testing::TestWithParam<ConcavityCase> {};

TEST_P(UtilityConcavity, SecondDifferenceNonPositiveBeyondGamma) {
  const auto& c = GetParam();
  auto p = default_job();
  p.beta = c.beta;
  p.deadline = c.deadline;
  p.num_tasks = c.num_tasks;
  auto e = default_econ();
  e.r_min = 0.0;  // keep the log term finite over the scan

  const long long start = concave_start(gamma_threshold(c.strategy, p));
  const auto u = [&](long long r) {
    return AnalyticContext(c.strategy, p, e)
        .evaluate(static_cast<double>(r))
        .utility;
  };
  for (long long r = start; r < start + 12; ++r) {
    const double second = u(r + 2) - 2.0 * u(r + 1) + u(r);
    EXPECT_LE(second, 1e-7)
        << to_string(c.strategy) << " r=" << r << " beta=" << c.beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, UtilityConcavity,
    ::testing::Values(
        ConcavityCase{Strategy::kClone, 1.2, 100.0, 10},
        ConcavityCase{Strategy::kClone, 1.5, 150.0, 50},
        ConcavityCase{Strategy::kClone, 1.8, 90.0, 200},
        ConcavityCase{Strategy::kSpeculativeRestart, 1.2, 100.0, 10},
        ConcavityCase{Strategy::kSpeculativeRestart, 1.5, 150.0, 50},
        ConcavityCase{Strategy::kSpeculativeRestart, 1.8, 90.0, 200},
        ConcavityCase{Strategy::kSpeculativeResume, 1.2, 100.0, 10},
        ConcavityCase{Strategy::kSpeculativeResume, 1.5, 150.0, 50},
        ConcavityCase{Strategy::kSpeculativeResume, 1.8, 90.0, 200}));

// --- The lemma behind Algorithm 1's early stop ----------------------------
//
// optimize() stops at the first strict descent of U because U is -infinity
// up to some r and concave after it: log10(R - R_min) is concave wherever
// R > R_min, and E(T) is convex in r. These checks pin both halves on the
// kernels over r in [0, 400], including S-Restart's r = 0 -> 1 branch
// switch, so a kernel edit that breaks either fails here before any golden
// moves. Second differences are allowed the rounding error of their terms.

constexpr double kEps = std::numeric_limits<double>::epsilon();
constexpr int kLemmaMaxR = 400;

/// Calls `check(strategy, context, r_min)` for every job on a grid of strategies,
/// beta, N, deadlines from the clamp floor t_min (1 + 0.3) upward, and
/// R_min in {0, the no-speculation PoCD, 0.5}.
template <typename Check>
void for_each_lemma_job(Check check) {
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    for (const double beta : {1.05, 1.5, 2.0, 3.0}) {
      for (const int n : {1, 10, 200, 5000}) {
        for (const double delta : {1e-9, 1e-3, 0.1, 1.0, 3.0}) {
          JobParams p;
          p.num_tasks = n;
          p.t_min = 10.0;
          p.beta = beta;
          p.deadline = p.t_min * 1.3 * (1.0 + delta);
          p.tau_est = s == Strategy::kClone ? 0.0 : 0.3 * p.t_min;
          p.tau_kill = 0.8 * p.t_min;
          p.phi_est = default_phi_est(p);
          JobParams baseline = p;
          baseline.tau_est = baseline.tau_kill = baseline.phi_est = 0.0;
          for (const double r_min :
               {0.0, pocd_no_speculation(baseline), 0.5}) {
            Economics e = default_econ();
            e.r_min = r_min;
            check(s, AnalyticContext(s, p, e), r_min);
          }
        }
      }
    }
  }
}

TEST(UtilityConcavity, LogPocdMarginConcaveFromZero) {
  std::int64_t checked = 0;
  for_each_lemma_job([&](Strategy strategy, const AnalyticContext& ctx,
                         double r_min) {
    const double n = ctx.params().num_tasks;
    std::vector<double> log_margin(kLemmaMaxR + 1);
    std::vector<double> noise(kLemmaMaxR + 1);
    std::vector<bool> sound(kLemmaMaxR + 1);
    for (int r = 0; r <= kLemmaMaxR; ++r) {
      const double pocd = ctx.pocd(r);
      const double margin = pocd - r_min;
      sound[r] = margin >= std::numeric_limits<double>::min();
      log_margin[r] = sound[r] ? std::log10(margin) : 0.0;
      // R = (1 - y)^N carries about N ulps of relative error, which the
      // logarithm of R - R_min scales by R / (R - R_min).
      noise[r] = 64.0 * kEps * (n * pocd / margin + std::abs(log_margin[r]));
    }
    for (int r = 0; r + 2 <= kLemmaMaxR; ++r) {
      if (!(sound[r] && sound[r + 1] && sound[r + 2])) {
        continue;
      }
      ++checked;
      const double second =
          log_margin[r + 2] - 2.0 * log_margin[r + 1] + log_margin[r];
      ASSERT_LE(second, noise[r] + 2.0 * noise[r + 1] + noise[r + 2])
          << to_string(strategy) << " N=" << ctx.params().num_tasks
          << " beta=" << ctx.params().beta << " D=" << ctx.params().deadline
          << " r_min=" << r_min << " r=" << r;
    }
  });
  EXPECT_GT(checked, 100000);
}

TEST(UtilityConcavity, MachineTimeConvexFromZero) {
  std::int64_t checked = 0;
  for_each_lemma_job([&](Strategy strategy, const AnalyticContext& ctx,
                         double r_min) {
    if (r_min != 0.0) {
      return;  // E(T) does not depend on R_min
    }
    std::vector<double> time(kLemmaMaxR + 1);
    for (int r = 0; r <= kLemmaMaxR; ++r) {
      time[r] = ctx.machine_time(r);
    }
    for (int r = 0; r + 2 <= kLemmaMaxR; ++r) {
      ++checked;
      const double second = time[r + 2] - 2.0 * time[r + 1] + time[r];
      ASSERT_GE(second, -64.0 * kEps * time[r + 2])
          << to_string(strategy) << " N=" << ctx.params().num_tasks
          << " beta=" << ctx.params().beta << " D=" << ctx.params().deadline
          << " r=" << r;
    }
  });
  EXPECT_GT(checked, 100000);
}

TEST(Utility, LargeDeadlineDrivesOptimalRTowardZero) {
  // §V: for non-deadline-sensitive jobs the optimal r approaches zero.
  auto p = default_job();
  p.deadline = 5000.0;
  const auto e = default_econ();
  const AnalyticContext clone(Strategy::kClone, p, e);
  const double u0 = clone.evaluate(0.0).utility;
  const double u1 = clone.evaluate(1.0).utility;
  EXPECT_GT(u0, u1);
}

}  // namespace
}  // namespace chronos::core
