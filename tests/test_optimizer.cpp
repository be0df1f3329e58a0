// Algorithm 1 (Theorem 9): the hybrid optimizer must return the global
// optimum; validated against an exhaustive scan over a parameter grid.
#include "core/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/pocd.h"
#include "core/thresholds.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_econ;
using chronos::testing::default_job;

TEST(Optimizer, AgreesWithBruteForceOnDefaultJob) {
  const auto p = default_job();
  const auto e = default_econ();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const auto fast = optimize(s, p, e);
    const auto slow = brute_force_optimize(s, p, e);
    EXPECT_EQ(fast.r_opt, slow.r_opt) << to_string(s);
    EXPECT_NEAR(fast.best.utility, slow.best.utility, 1e-12) << to_string(s);
  }
}

struct GridCase {
  Strategy strategy;
  int num_tasks;
  double beta;
  double deadline;
  double theta;
  double r_min;
};

class OptimizerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(OptimizerGrid, MatchesBruteForce) {
  const auto& c = GetParam();
  auto p = default_job();
  p.num_tasks = c.num_tasks;
  p.beta = c.beta;
  p.deadline = c.deadline;
  auto e = default_econ();
  e.theta = c.theta;
  e.r_min = c.r_min;
  OptimizerOptions options;
  options.max_r = 512;

  const auto fast = optimize(c.strategy, p, e, options);
  const auto slow = brute_force_optimize(c.strategy, p, e, options);
  EXPECT_EQ(fast.feasible, slow.feasible);
  if (fast.feasible) {
    // Utilities must match exactly (same global optimum); r may only differ
    // on exact ties.
    EXPECT_NEAR(fast.best.utility, slow.best.utility, 1e-10)
        << to_string(c.strategy) << " N=" << c.num_tasks
        << " beta=" << c.beta << " D=" << c.deadline
        << " theta=" << c.theta << " rmin=" << c.r_min
        << " fast r=" << fast.r_opt << " slow r=" << slow.r_opt;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptimizerGrid,
    ::testing::ValuesIn([] {
      std::vector<GridCase> cases;
      for (const Strategy s :
           {Strategy::kClone, Strategy::kSpeculativeRestart,
            Strategy::kSpeculativeResume}) {
        for (const int n : {1, 10, 200}) {
          for (const double beta : {1.2, 1.6}) {
            for (const double d : {95.0, 150.0}) {
              for (const double theta : {1e-6, 1e-4, 1e-3}) {
                for (const double r_min : {0.0, 0.5}) {
                  cases.push_back(GridCase{s, n, beta, d, theta, r_min});
                }
              }
            }
          }
        }
      }
      return cases;
    }()));

TEST(Optimizer, DeadlineAtTheRestartFloorIsLegal) {
  // validate() accepts D - tau_est == t_min. There a restarted attempt
  // misses the deadline surely, Gamma_S-Restart has a logarithm of base 1,
  // and Algorithm 1 must still run (Gamma = +infinity).
  JobParams p;
  p.num_tasks = 10;
  p.t_min = 10.0;
  p.deadline = 13.0;
  p.beta = 1.5;
  p.tau_est = 3.0;
  p.tau_kill = 8.0;
  p.phi_est = default_phi_est(p);
  const auto e = default_econ();
  EXPECT_EQ(gamma_s_restart(p), std::numeric_limits<double>::infinity());
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const auto fast = optimize(s, p, e);
    const auto slow = brute_force_optimize(s, p, e);
    EXPECT_EQ(fast.best.utility, slow.best.utility) << to_string(s);
    EXPECT_EQ(fast.r_opt, slow.r_opt) << to_string(s);
  }
}

// --- Early stop: property grid in the planner's regime -----------------------

/// Draws one stage as the staged planner sees it: the deadline sits a factor
/// 1 + delta above the clamp floor t_min (1 + tau_est factor), with delta
/// log-uniform in [1e-12, 1], and R_min is 0, the no-speculation PoCD or a
/// uniform draw.
struct PlannerCase {
  JobParams params;
  Economics econ;
};

PlannerCase draw_planner_case(Rng& rng, Strategy strategy) {
  const auto log_uniform = [&rng](double lo, double hi) {
    return std::exp(rng.uniform(std::log(lo), std::log(hi)));
  };
  PlannerCase c;
  auto& p = c.params;
  p.num_tasks = static_cast<int>(log_uniform(1.0, 5000.0));
  p.t_min = rng.uniform(1.0, 20.0);
  p.beta = rng.uniform(1.001, 3.0);
  const double est_factor = rng.uniform(0.05, 0.6);
  p.deadline =
      p.t_min * (1.0 + est_factor) * (1.0 + log_uniform(1e-12, 1.0));
  p.tau_est = strategy == Strategy::kClone ? 0.0 : est_factor * p.t_min;
  p.tau_kill = (est_factor + rng.uniform(0.0, 1.0)) * p.t_min;
  p.phi_est = default_phi_est(p);
  auto& e = c.econ;
  e.price = rng.uniform(0.05, 1.0);
  e.theta = log_uniform(1e-9, 1e-1);
  switch (rng.uniform_int(0, 2)) {
    case 0:
      e.r_min = 0.0;
      break;
    case 1: {
      JobParams baseline = p;
      baseline.tau_est = baseline.tau_kill = baseline.phi_est = 0.0;
      e.r_min = pocd_no_speculation(baseline);
      break;
    }
    default:
      e.r_min = rng.uniform();
      break;
  }
  return c;
}

TEST(OptimizerProperty, MatchesBruteForceNearTheClampFloor) {
  Rng rng(20181017);
  OptimizerOptions options;
  options.max_r = 4096;
  for (int i = 0; i < 1000; ++i) {
    for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                             Strategy::kSpeculativeResume}) {
      const auto c = draw_planner_case(rng, s);
      const auto fast = optimize(s, c.params, c.econ, options);
      const auto slow = brute_force_optimize(s, c.params, c.econ, options);
      ASSERT_EQ(fast.feasible, slow.feasible) << "case " << i;
      ASSERT_EQ(fast.best.utility, slow.best.utility)
          << "case " << i << " " << to_string(s) << " N=" << c.params.num_tasks
          << " t_min=" << c.params.t_min << " D=" << c.params.deadline
          << " beta=" << c.params.beta << " theta=" << c.econ.theta
          << " r_min=" << c.econ.r_min << " fast r=" << fast.r_opt
          << " slow r=" << slow.r_opt;
    }
  }
}

TEST(OptimizerProperty, SubnormalBandDoesNotEndTheScan) {
  // R(r) climbs through the subnormal band for thousands of r. There pow's
  // underflow makes U dip and recover, and a scan that trusted the first
  // dip would stop at r = 2091; brute force finds r = 4096.
  JobParams p;
  p.t_min = 13.109159341953411;
  p.deadline = 14.423368732881249;
  p.beta = 1.5815354526931262;
  p.tau_est = 1.3092528292403791;
  p.tau_kill = 2.8346362665503797;
  p.phi_est = 0.05561060921426169;
  p.num_tasks = 2635;
  Economics e;
  e.price = 0.30894334252328975;
  e.theta = 1.5265381001651749e-06;
  e.r_min = 0.0;
  const auto fast = optimize(Strategy::kSpeculativeRestart, p, e);
  const auto slow = brute_force_optimize(Strategy::kSpeculativeRestart, p, e);
  EXPECT_EQ(slow.r_opt, 4096);
  EXPECT_EQ(fast.r_opt, slow.r_opt);
  EXPECT_EQ(fast.best.utility, slow.best.utility);
}

TEST(OptimizerProperty, RoundingStairsDoNotEndTheScan) {
  // D - tau_est lies within 1e-15 of t_min, so each restart adds under an
  // ulp to 1 - y and the computed R rises in stairs, while R_min sits so
  // close below R that log10(R - R_min) magnifies every stair. On a flat
  // stair U dips by the cost term alone; trusting that dip would stop the
  // scan at r = 1644, short of brute force's r = 1670.
  JobParams p;
  p.t_min = 14.443979748413074;
  p.deadline = 15.391039657319213;
  p.beta = 1.7371630870583625;
  p.tau_est = 0.94705990890612379;
  p.tau_kill = 13.092544547433663;
  p.phi_est = 0.039052551438789357;
  p.num_tasks = 164;
  Economics e;
  e.price = 0.62291052604669561;
  e.theta = 2.3426763305587676e-07;
  e.r_min = 1.2727933671523498e-161;
  const auto fast = optimize(Strategy::kSpeculativeRestart, p, e);
  const auto slow = brute_force_optimize(Strategy::kSpeculativeRestart, p, e);
  EXPECT_EQ(slow.r_opt, 1670);
  EXPECT_EQ(fast.r_opt, slow.r_opt);
  EXPECT_EQ(fast.best.utility, slow.best.utility);
}

TEST(OptimizerProperty, GallopBracketStartsAtTheLastClimb) {
  // D exceeds t_min by 6e-15, so P(T > D) is within 1e-14 of 1 and the
  // rounding-error bound on U is about 0.17. Between r = 1 and r = 1023 no
  // gallop step clears it; 1023 -> 2047 descends beyond it. The optimum
  // r = 499 lies below x_{k-2} = 511, so the bracket must reach back to the
  // last step that climbed: 0 -> 1, out of the -infinity run.
  JobParams p;
  p.num_tasks = 1;
  p.t_min = 6.2135333544892992;
  p.deadline = 6.2135333544893339;
  p.beta = 1.6286727552580413;
  p.tau_est = 0.0;
  p.tau_kill = 3.9752687931824728;
  p.phi_est = 0.0;
  Economics e;
  e.price = 0.54739225787923573;
  e.theta = 0.00039982638278462327;
  e.r_min = 8.992806499463768e-15;
  const auto fast = optimize(Strategy::kClone, p, e);
  const auto slow = brute_force_optimize(Strategy::kClone, p, e);
  EXPECT_EQ(slow.r_opt, 499);
  EXPECT_EQ(fast.r_opt, slow.r_opt);
  EXPECT_EQ(fast.best.utility, slow.best.utility);
}

TEST(OptimizerProperty, ClampedRestartStageStopsAtTheFirstDescent) {
  // A DAG stage whose share was raised to the clamp floor
  // t_min (1 + 0.3) (1 + 1e-9): D - tau_est is within 1e-9 of t_min, so
  // Gamma is about 1e9 and the whole range 0 .. max_r lies below it. The
  // scan must stop just past r* instead of evaluating all 4097 points.
  JobParams p;
  p.num_tasks = 8;
  p.t_min = 8.0;
  p.beta = 1.5;
  p.tau_est = 0.3 * p.t_min;
  p.tau_kill = 0.8 * p.t_min;
  p.deadline = p.t_min * 1.3 * (1.0 + 1e-9);
  p.phi_est = default_phi_est(p);
  JobParams baseline = p;
  baseline.tau_est = baseline.tau_kill = baseline.phi_est = 0.0;
  Economics e;
  e.price = 0.4;
  e.theta = 1e-2;
  e.r_min = pocd_no_speculation(baseline);
  OptimizerOptions options;
  ASSERT_GT(concave_start(gamma_threshold(Strategy::kSpeculativeRestart, p)),
            options.max_r);
  const auto fast = optimize(Strategy::kSpeculativeRestart, p, e, options);
  const auto slow =
      brute_force_optimize(Strategy::kSpeculativeRestart, p, e, options);
  EXPECT_EQ(fast.r_opt, slow.r_opt);
  EXPECT_EQ(fast.best.utility, slow.best.utility);
  EXPECT_LT(fast.evaluations, 64);
}

TEST(Optimizer, FewerEvaluationsThanBruteForce) {
  const auto p = default_job();
  const auto e = default_econ();
  OptimizerOptions options;
  options.max_r = 4096;
  const auto fast = optimize(Strategy::kClone, p, e, options);
  EXPECT_LT(fast.evaluations, 200);
}

TEST(Optimizer, InfeasibleWhenRminUnreachable) {
  auto p = default_job();
  auto e = default_econ();
  // PoCD can approach 1 but never reach it; r_min extremely close to 1 with
  // a small max_r makes the problem infeasible.
  e.r_min = 1.0 - 1e-15;
  OptimizerOptions options;
  options.max_r = 2;
  const auto result = optimize(Strategy::kSpeculativeRestart, p, e, options);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.r_opt, 0);
  EXPECT_TRUE(std::isinf(result.best.utility));
}

TEST(Optimizer, HighThetaPushesRToZero) {
  const auto p = default_job();
  auto e = default_econ();
  e.theta = 10.0;  // cost utterly dominates
  const auto result = optimize(Strategy::kClone, p, e);
  EXPECT_EQ(result.r_opt, 0);
}

TEST(Optimizer, LowThetaPushesRUp) {
  const auto p = default_job();
  auto low = default_econ();
  low.theta = 1e-6;
  auto high = default_econ();
  high.theta = 1e-3;
  const auto r_low = optimize(Strategy::kClone, p, low).r_opt;
  const auto r_high = optimize(Strategy::kClone, p, high).r_opt;
  EXPECT_GE(r_low, r_high);
  EXPECT_GT(r_low, 0);
}

TEST(Optimizer, GammaReportedMatchesThreshold) {
  const auto p = default_job();
  const auto e = default_econ();
  const auto result = optimize(Strategy::kClone, p, e);
  EXPECT_NEAR(result.gamma, gamma_threshold(Strategy::kClone, p), 1e-12);
}

TEST(Optimizer, LargeBetaStaysFinite) {
  // At beta = 400 both pow(D, beta) and pow(t_min, beta) overflow, which
  // used to make Gamma's logarithm argument inf / inf and the truncated
  // Pareto mean behind E(T) NaN. Every attempt beats D almost surely, so
  // speculation buys nothing and the cost is N E[T | T <= D].
  auto p = default_job();
  p.beta = 400.0;
  const auto result =
      optimize(Strategy::kSpeculativeRestart, p, default_econ());
  EXPECT_TRUE(std::isfinite(result.gamma));
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.r_opt, 0);
  EXPECT_NEAR(result.best.machine_time,
              p.num_tasks * p.t_min * p.beta / (p.beta - 1.0), 1e-9);
}

TEST(Optimizer, RejectsNegativeMaxR) {
  const auto p = default_job();
  const auto e = default_econ();
  OptimizerOptions options;
  options.max_r = -1;
  EXPECT_THROW(optimize(Strategy::kClone, p, e, options), PreconditionError);
}

TEST(OptimizeAll, PicksBestStrategy) {
  const auto p = default_job();
  const auto e = default_econ();
  const auto best = optimize_all(p, e);
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const auto result = optimize(s, p, e);
    EXPECT_GE(best.result.best.utility, result.best.utility - 1e-12)
        << to_string(s);
  }
}

// --- AnalyticContext + memoization -----------------------------------------

TEST(AnalyticContext, BitIdenticalToFreeFunctions) {
  // One context reused across many r (the optimizer's path) returns what a
  // fresh one-shot context per call (the free functions' path) returns, bit
  // for bit: the hoisted constants do not depend on evaluation order.
  const auto e = default_econ();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    for (const int n : {1, 10, 200}) {
      for (const double beta : {1.2, 1.6}) {
        auto p = default_job();
        p.num_tasks = n;
        p.beta = beta;
        const AnalyticContext ctx(s, p, e);
        for (const double r : {0.0, 1.0, 2.0, 7.0, 33.0}) {
          const auto from_ctx = ctx.evaluate(r);
          const auto from_free = AnalyticContext(s, p, e).evaluate(r);
          EXPECT_EQ(from_ctx.pocd, from_free.pocd)
              << to_string(s) << " n=" << n << " beta=" << beta << " r=" << r;
          EXPECT_EQ(from_ctx.machine_time, from_free.machine_time)
              << to_string(s) << " n=" << n << " beta=" << beta << " r=" << r;
          EXPECT_EQ(from_ctx.cost, from_free.cost)
              << to_string(s) << " n=" << n << " beta=" << beta << " r=" << r;
          EXPECT_EQ(from_ctx.utility, from_free.utility)
              << to_string(s) << " n=" << n << " beta=" << beta << " r=" << r;
        }
      }
    }
  }
}

TEST(AnalyticContext, GammaMatchesThreshold) {
  const auto p = default_job();
  const auto e = default_econ();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const AnalyticContext ctx(s, p, e);
    EXPECT_EQ(ctx.gamma(), gamma_threshold(s, p)) << to_string(s);
  }
}

TEST(Optimizer, NeverEvaluatesTheSameRTwice) {
  // The context counts actual utility evaluations; the optimizer reports the
  // number of distinct r values it requested. Equality proves the memo
  // deduplicated every ternary-search revisit on a representative grid.
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    for (const int n : {1, 10, 200}) {
      for (const double theta : {1e-6, 1e-4, 1e-3}) {
        auto p = default_job();
        p.num_tasks = n;
        auto e = default_econ();
        e.theta = theta;
        const AnalyticContext ctx(s, p, e);
        const auto result = optimize(ctx);
        EXPECT_EQ(ctx.evaluations(), result.evaluations)
            << to_string(s) << " n=" << n << " theta=" << theta;
        EXPECT_GE(result.lookups, result.evaluations)
            << to_string(s) << " n=" << n << " theta=" << theta;
      }
    }
  }
}

TEST(Optimizer, MemoizationActuallyDeduplicates) {
  // On the default job the guarded ternary search revisits probe points, so
  // lookups must exceed unique evaluations somewhere on the grid.
  bool any_dedup = false;
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const auto result = optimize(s, default_job(), default_econ());
    if (result.lookups > result.evaluations) {
      any_dedup = true;
    }
  }
  EXPECT_TRUE(any_dedup);
}

TEST(Optimizer, ContextOverloadMatchesConvenienceOverload) {
  const auto p = default_job();
  const auto e = default_econ();
  for (const Strategy s : {Strategy::kClone, Strategy::kSpeculativeRestart,
                           Strategy::kSpeculativeResume}) {
    const AnalyticContext ctx(s, p, e);
    const auto via_ctx = optimize(ctx);
    const auto via_args = optimize(s, p, e);
    EXPECT_EQ(via_ctx.r_opt, via_args.r_opt) << to_string(s);
    EXPECT_EQ(via_ctx.best.utility, via_args.best.utility) << to_string(s);
    EXPECT_EQ(via_ctx.evaluations, via_args.evaluations) << to_string(s);
  }
}

TEST(OptimizeAll, ResumeWinsOnDefaultJob) {
  // S-Resume dominates on PoCD at equal r and is cheaper than S-Restart;
  // with the default economics it should be the chosen strategy.
  const auto best = optimize_all(default_job(), default_econ());
  EXPECT_EQ(best.strategy, Strategy::kSpeculativeResume);
}

}  // namespace
}  // namespace chronos::core
