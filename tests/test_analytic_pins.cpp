// Pins the analytic core's outputs bit for bit, and its error contract.
//
// Every PoCD, E(T) and utility value the planner sees comes from
// AnalyticContext (core/analytic_context.h). The table below holds
// pocd(), machine_time() and AnalyticContext::evaluate().utility for 60
// points that
// cover all three strategies, r in {0, 1, 3, 40, 2000}, beta in
// {0.9 (PoCD only), 1.2, 1.5, 3} and tau_est / D in {0.1, 0.4, 0.9}, as
// hexfloat literals. Any change to a formula kernel, to the order of its
// floating-point operations or to which constants are hoisted moves a bit
// here before it can move a golden.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "core/analytic_context.h"
#include "core/cost.h"
#include "core/optimizer.h"
#include "core/pocd.h"
#include "core/utility.h"

namespace chronos::core {
namespace {

using S = Strategy;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// One of three job shapes, with its tail index set to `beta`. The values
/// are deliberately not round, so that intermediate results are inexact and
/// a reordered floating-point expression shows in the last bits.
JobParams pin_job(int shape, double beta) {
  JobParams p;
  switch (shape) {
    case 0:  // tau_est / D = 0.4
      p.num_tasks = 10;
      p.t_min = 30.7;
      p.deadline = 101.3;
      p.tau_est = 40.9;
      p.tau_kill = 79.3;
      p.phi_est = 0.2531;
      break;
    case 1:  // tau_est / D = 0.9, D - tau_est close to t_min
      p.num_tasks = 200;
      p.t_min = 10.3;
      p.deadline = 150.7;
      p.tau_est = 135.6;
      p.tau_kill = 141.1;
      p.phi_est = 0.6137;
      break;
    default:  // tau_est / D = 0.1, a single task
      p.num_tasks = 1;
      p.t_min = 5.3;
      p.deadline = 61.7;
      p.tau_est = 6.1;
      p.tau_kill = 19.7;
      p.phi_est = 0.0517;
      break;
  }
  p.beta = beta;
  return p;
}

struct Pin {
  Strategy strategy;
  int shape;
  double beta;
  double r;
  double theta;
  double r_min;
  double pocd;
  double machine_time;  ///< NaN: beta <= 1, PoCD only
  double utility;
};

Economics pin_econ(const Pin& pin) {
  Economics econ;
  econ.price = 0.4;
  econ.theta = pin.theta;
  econ.r_min = pin.r_min;
  return econ;
}

// clang-format off
constexpr Pin kPins[] = {
    {S::kClone, 0, 0.9, 0, 0.0001, 0,
     0x1.f67085b9ebfb1p-7, kNaN, kNaN},
    {S::kClone, 1, 0.9, 1, 0.0001, 0,
     0x1.9bba54b282d5ap-3, kNaN, kNaN},
    {S::kClone, 2, 0.9, 3, 0.0001, 0,
     0x1.ffecf3686b7f1p-1, kNaN, kNaN},
    {S::kClone, 0, 0.9, 40, 0.001, 0,
     0x1p+0, kNaN, kNaN},
    {S::kClone, 1, 0.9, 2000, 0.001, 0,
     0x1p+0, kNaN, kNaN},
    {S::kClone, 2, 1.2, 0, 0.001, 0,
     0x1.e514bce1e440dp-1, 0x1.fcccccccccccep+4, -0x1.2859ebe60abf6p-5},
    {S::kClone, 0, 1.2, 1, 1e-6, 0,
     0x1.1cc7f047f6a6ep-1, 0x1.49d2492492493p+10, -0x1.0569dd03aeccdp-2},
    {S::kClone, 1, 1.2, 3, 1e-6, 0,
     0x1.ffbd264489839p-1, 0x1.54de1af286bcap+16, -0x1.1fc1672472d02p-5},
    {S::kClone, 2, 1.2, 40, 1e-6, 0,
     0x1p+0, 0x1.8cb4798534798p+9, -0x1.4cc7bedfd044cp-12},
    {S::kClone, 0, 1.2, 2000, 0.0001, 0.3,
     0x1p+0, 0x1.8348320be72b8p+20, -0x1.fcdb84e5d78efp+5},
    {S::kClone, 1, 1.5, 0, 0.0001, 0.3,
     0x1.bcfee59a9ea62p-6, 0x1.824p+12, -kInf},
    {S::kClone, 2, 1.5, 1, 0.0001, 0.3,
     0x1.ffacec3a36339p-1, 0x1.ba66666666666p+4, -0x1.404f5db6a310ep-3},
    {S::kClone, 0, 1.5, 3, 0.001, 0.3,
     0x1.fc0c065da57f2p-1, 0x1.576ccccccccccp+11, -0x1.4238c442bb91fp+0},
    {S::kClone, 1, 1.5, 40, 0.001, 0.3,
     0x1p+0, 0x1.1418e0cb1b811p+20, -0x1.c48334a0dab58p+8},
    {S::kClone, 2, 1.5, 2000, 0.001, 0.3,
     0x1p+0, 0x1.33da9a811f37ep+15, -0x1.fd583feb4ea02p+3},
    {S::kClone, 0, 3, 0, 1e-6, 0.3,
     0x1.82130e3faa60fp-1, 0x1.cc8p+8, -0x1.5f501720a263bp-2},
    {S::kClone, 1, 3, 1, 1e-6, 0.3,
     0x1.fffd53e682b12p-1, 0x1.df9p+14, -0x1.56687313f5b7p-3},
    {S::kClone, 2, 3, 3, 1e-6, 0.3,
     0x1.ffffffffffa52p-1, 0x1.0386fb586fb58p+6, -0x1.3d4ad872b9172p-3},
    {S::kClone, 0, 3, 40, 0.0001, 0.9,
     0x1p+0, 0x1.f47610c9714fcp+14, -0x1.23fdba4c54a4cp+1},
    {S::kClone, 1, 3, 2000, 0.0001, 0.9,
     0x1p+0, 0x1.ae9e662bee991p+25, -0x1.1a55d65550eb5p+11},
    {S::kSpeculativeRestart, 2, 0.9, 0, 0.0001, 0.9,
     0x1.c7c8a62e37407p-1, kNaN, kNaN},
    {S::kSpeculativeRestart, 0, 0.9, 1, 0.001, 0.9,
     0x1.0673673b18ab7p-3, kNaN, kNaN},
    {S::kSpeculativeRestart, 1, 0.9, 3, 0.001, 0.9,
     0x1.9750d7bc40499p-10, kNaN, kNaN},
    {S::kSpeculativeRestart, 2, 0.9, 40, 0.001, 0.9,
     0x1p+0, kNaN, kNaN},
    {S::kSpeculativeRestart, 0, 0.9, 2000, 1e-6, 0.9,
     0x1p+0, kNaN, kNaN},
    {S::kSpeculativeRestart, 1, 1.2, 0, 1e-6, 0.9,
     0x1.2cae322b292d4p-12, 0x1.8240000000001p+13, -kInf},
    {S::kSpeculativeRestart, 2, 1.2, 1, 1e-6, 0.9,
     0x1.fe65797d4cd06p-1, 0x1.c9bc3829bf4e6p+3, -0x1.038a141486a8cp+0},
    {S::kSpeculativeRestart, 0, 1.2, 3, 0.0001, 0,
     0x1.9e95f43c761dbp-1, 0x1.b015142fc6205p+9, -0x1.0280c4c41e511p-3},
    {S::kSpeculativeRestart, 1, 1.2, 40, 0.0001, 0,
     0x1.fffffd2840268p-1, 0x1.f7b3aac3402dcp+12, -0x1.4a1b271883d4p-2},
    {S::kSpeculativeRestart, 2, 1.2, 2000, 0.0001, 0,
     0x1p+0, 0x1.68c07766700bap+10, -0x1.d8d8398a71edbp-5},
    {S::kSpeculativeRestart, 0, 1.5, 0, 0.001, 0,
     0x1.4a161f745bd89p-3, 0x1.cc8p+9, -0x1.293e000dda7ffp+0},
    {S::kSpeculativeRestart, 1, 1.5, 1, 0.001, 0,
     0x1.0ebb3917516e6p-3, 0x1.42149f5c4d5dp+12, -0x1.78556cf3a4612p+1},
    {S::kSpeculativeRestart, 2, 1.5, 3, 0.001, 0,
     0x1.ffffea77177b9p-1, 0x1.92f397db04bdep+3, -0x1.4a1dbcf821b05p-8},
    {S::kSpeculativeRestart, 0, 1.5, 40, 1e-6, 0,
     0x1p+0, 0x1.831dabbc0d5a4p+11, -0x1.44bc81c2ee727p-10},
    {S::kSpeculativeRestart, 1, 1.5, 2000, 1e-6, 0,
     0x1p+0, 0x1.5ad883b0896efp+15, -0x1.22f48f46ccca4p-6},
    {S::kSpeculativeRestart, 2, 3, 0, 1e-6, 0,
     0x1.ffacec3a36339p-1, 0x1.fcccccccccccdp+2, -0x1.2410dcc1e0181p-12},
    {S::kSpeculativeRestart, 0, 3, 1, 0.0001, 0.3,
     0x1.ed974f7265df2p-1, 0x1.c48ceee222602p+8, -0x1.91365f77db5e9p-3},
    {S::kSpeculativeRestart, 1, 3, 3, 0.0001, 0.3,
     0x1.fef4b0efbb65dp-1, 0x1.81c0905e05505p+11, -0x1.1e520812c1e1p-2},
    {S::kSpeculativeRestart, 2, 3, 40, 0.0001, 0.3,
     0x1p+0, 0x1.07c9e662c4153p+3, -0x1.3dea1d86fa941p-3},
    {S::kSpeculativeRestart, 0, 3, 2000, 0.001, 0.3,
     0x1p+0, 0x1.54dccaa9b828p+14, -0x1.1c30ff542506bp+3},
    {S::kSpeculativeResume, 1, 0.9, 0, 0.001, 0.3,
     0x1.17caf17b07068p-8, kNaN, kNaN},
    {S::kSpeculativeResume, 2, 0.9, 1, 0.001, 0.3,
     0x1.ff41d1ce8b2e9p-1, kNaN, kNaN},
    {S::kSpeculativeResume, 0, 0.9, 3, 1e-6, 0.3,
     0x1.ccf2522d32e5p-1, kNaN, kNaN},
    {S::kSpeculativeResume, 1, 0.9, 40, 1e-6, 0.3,
     0x1p+0, kNaN, kNaN},
    {S::kSpeculativeResume, 2, 0.9, 2000, 1e-6, 0.3,
     0x1p+0, kNaN, kNaN},
    {S::kSpeculativeResume, 0, 1.2, 0, 0.0001, 0.9,
     0x1.d754ee33095efp-2, 0x1.9a24673d50014p+9, -kInf},
    {S::kSpeculativeResume, 1, 1.2, 1, 0.0001, 0.9,
     0x1.71a46a46c7aa6p-1, 0x1.8cd055f8074ecp+12, -kInf},
    {S::kSpeculativeResume, 2, 1.2, 3, 0.0001, 0.9,
     0x1.ffffeec793232p-1, 0x1.e4675c9acce4dp+3, -0x1.0027d413aa48ap+0},
    {S::kSpeculativeResume, 0, 1.2, 40, 0.001, 0.9,
     0x1p+0, 0x1.0846ce1f0d3p+12, -0x1.587ed0fed03bp+1},
    {S::kSpeculativeResume, 1, 1.2, 2000, 0.001, 0.9,
     0x1p+0, 0x1.700bd33f57a8ap+16, -0x1.3580e17b91f2ap+5},
    {S::kSpeculativeResume, 2, 1.5, 0, 0.001, 0.9,
     0x1.ffa650d45b8a8p-1, 0x1.78bf7d5521207p+3, -0x1.01f80c55a44b9p+0},
    {S::kSpeculativeResume, 0, 1.5, 1, 1e-6, 0.9,
     0x1.d3232da4d569ap-1, 0x1.301621ab3f83p+9, -0x1.e8588b271dc1dp+0},
    {S::kSpeculativeResume, 1, 1.5, 3, 1e-6, 0.9,
     0x1.ff634c0731b67p-1, 0x1.418ba8a297432p+12, -0x1.01dd31545b36dp+0},
    {S::kSpeculativeResume, 2, 1.5, 40, 1e-6, 0.9,
     0x1p+0, 0x1.93905a99d3267p+4, -0x1.0000a94457887p+0},
    {S::kSpeculativeResume, 0, 1.5, 2000, 0.0001, 0,
     0x1p+0, 0x1.f6988dfc1b1a1p+16, -0x1.49619a3ed1f22p+2},
    {S::kSpeculativeResume, 1, 3, 0, 0.0001, 0,
     0x1.ff66f4e8a09c7p-1, 0x1.819cd4258c7f2p+11, -0x1.fb8228cb901dp-4},
    {S::kSpeculativeResume, 2, 3, 1, 0.0001, 0,
     0x1.fffffffd07875p-1, 0x1.fa17526099903p+2, -0x1.4bac0995cc3e7p-12},
    {S::kSpeculativeResume, 0, 3, 3, 0.001, 0,
     0x1.ffffac4de914cp-1, 0x1.d6394bcb4cc82p+8, -0x1.8135a61d8abb9p-3},
    {S::kSpeculativeResume, 1, 3, 40, 0.001, 0,
     0x1p+0, 0x1.835dc4bcb3f0bp+11, -0x1.3d5498f99cd4p+0},
    {S::kSpeculativeResume, 2, 3, 2000, 0.001, 0,
     0x1p+0, 0x1.92382c2d415e9p+4, -0x1.497f86e7393cbp-7},
};
// clang-format on

std::string label(const Pin& pin) {
  return to_string(pin.strategy) + " shape=" + std::to_string(pin.shape) +
         " beta=" + std::to_string(pin.beta) + " r=" + std::to_string(pin.r);
}

TEST(AnalyticPins, OutputsAreBitIdentical) {
  int full = 0;
  for (const Pin& pin : kPins) {
    const JobParams p = pin_job(pin.shape, pin.beta);
    EXPECT_EQ(pocd(pin.strategy, p, pin.r), pin.pocd) << label(pin);
    if (std::isnan(pin.machine_time)) {
      continue;
    }
    ++full;
    EXPECT_EQ(machine_time(pin.strategy, p, pin.r), pin.machine_time)
        << label(pin);
    const auto point =
        AnalyticContext(pin.strategy, p, pin_econ(pin)).evaluate(pin.r);
    EXPECT_EQ(point.pocd, pin.pocd) << label(pin);
    EXPECT_EQ(point.machine_time, pin.machine_time) << label(pin);
    EXPECT_EQ(point.utility, pin.utility) << label(pin);
  }
  EXPECT_EQ(full, 45);  // 15 rows are PoCD-only (beta = 0.9)
}

TEST(AnalyticPins, PocdAcceptsBetaAtMostOneWhereMachineTimeDoesNot) {
  // PoCD is finite for every beta > 0, so S-Restart and S-Resume report it
  // at beta = 0.9. Their expected machine time is infinite there, so E(T),
  // the utility and Algorithm 1 refuse the job instead.
  int checked = 0;
  for (const Pin& pin : kPins) {
    if (pin.beta >= 1.0 || pin.strategy == S::kClone) {
      continue;
    }
    ++checked;
    const JobParams p = pin_job(pin.shape, pin.beta);
    EXPECT_EQ(pocd(pin.strategy, p, pin.r), pin.pocd) << label(pin);
    EXPECT_THROW(machine_time(pin.strategy, p, pin.r), PreconditionError)
        << label(pin);
    EXPECT_THROW(
        AnalyticContext(pin.strategy, p, pin_econ(pin)).evaluate(pin.r),
        PreconditionError)
        << label(pin);
    EXPECT_THROW(optimize(pin.strategy, p, pin_econ(pin)), PreconditionError)
        << label(pin);
    EXPECT_THROW(optimize_all(p, pin_econ(pin)), PreconditionError)
        << label(pin);
  }
  EXPECT_EQ(checked, 10);
  // beta == 1 exactly is outside the domain too.
  const JobParams p = pin_job(0, 1.0);
  EXPECT_THROW(machine_time(S::kSpeculativeResume, p, 1.0), PreconditionError);
  EXPECT_THROW(optimize_all(p, Economics{}), PreconditionError);
}

TEST(AnalyticPins, PocdDoesNotNeedTheConcavityThreshold) {
  // Gamma (Theorem 8) only steers Algorithm 1, so PoCD must not depend on
  // it. At beta = 400, D^beta overflows and Gamma cannot be evaluated, yet
  // every straggler probability underflows and the PoCD is exactly 1.
  const JobParams p = pin_job(0, 400.0);
  for (const Strategy s :
       {S::kClone, S::kSpeculativeRestart, S::kSpeculativeResume}) {
    EXPECT_EQ(pocd(s, p, 1.0), 1.0) << to_string(s);
  }
}

}  // namespace
}  // namespace chronos::core
