// Conformance of the discrete-event scheduler with Theorems 1-7.
//
// Each case replays kJobs isolated one-stage jobs (N = 10, t_min = 10,
// D = 40) through trace::replay_isolated, the setting the theorems assume:
// no progress noise, no JVM start-up, no failures, no container contention.
// It then compares what the simulator measured with what core predicts:
//  - PoCD: Theorems 1, 3 and 5 (pocd_no_speculation for Hadoop-NS), within
//    kPocdHalfWidths CI half-widths plus kPocdFloor, since the CI is 0 when
//    every job meets D.
//  - Machine time, where each loser's kill window w is no longer than the
//    shortest copy that races in it: Theorems 2 and 4, and for S-Resume
//    machine_time_s_resume_exact (Theorem 6's published form integrates
//    from t_min, not (1 - phi) t_min, and is an upper bound), within
//    kMachineTimeTolerance. Checked only where the per-job machine time has
//    finite variance, beta (r + 1) > 2; at r = 0, beta = 1.5 the sample mean
//    converges too slowly to resolve 1%.
//  - Machine time, where w is longer: only theorem >= simulator. The
//    theorems charge every loser the whole window, but once a copy can
//    finish inside it the task ends and the losers are killed early. Here
//    at r = 4 the theorems over-charge by 24.9% (Clone, tau_kill = 15),
//    38.8% (S-Restart, (tau_est, tau_kill) = (5, 35)) and 43.3% (S-Resume,
//    (5, 35)). An exact charge, E[min(W, w)] per loser, would turn these
//    cases into equalities.
// Theorem 7 is checked on the simulated orderings at equal r.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/chronos.h"
#include "trace/harness.h"
#include "trace/planner.h"

namespace chronos {
namespace {

using core::Strategy;
using strategies::PolicyKind;

constexpr int kJobs = 20000;
constexpr double kPocdHalfWidths = 2.5;
constexpr double kPocdFloor = 1e-3;
constexpr double kMachineTimeTolerance = 0.01;

struct TestConf {
  PolicyKind policy;
  double beta;
  long long r;
  double tau_est;
  double tau_kill;
};

void PrintTo(const TestConf& c, std::ostream* os) {
  *os << strategies::to_string(c.policy) << " beta " << c.beta << " r "
      << c.r << " (tau_est, tau_kill) = (" << c.tau_est << ", " << c.tau_kill
      << ")";
}

/// The case's model view, built the way trace::stage_job_params builds it.
core::JobParams job_params(const TestConf& c) {
  core::JobParams p;
  p.num_tasks = 10;
  p.deadline = 40.0;
  p.t_min = 10.0;
  p.beta = c.beta;
  p.tau_est = c.tau_est;
  p.tau_kill = c.tau_kill;
  // Left at 0, Theorem 5 reads below the simulated S-Resume PoCD here by
  // 2.5 to 9 CI half-widths.
  p.phi_est = core::default_phi_est(p);
  return p;
}

/// True when no copy can finish inside a loser's kill window: the window
/// (tau_kill for Clone, tau_kill - tau_est after detection) is no longer
/// than the shortest copy racing in it. That is t_min, or for S-Resume
/// (1 - phi) t_min, where a straggler's progress phi stays below
/// tau_est / D.
bool short_window(const TestConf& c, const core::JobParams& p) {
  switch (c.policy) {
    case PolicyKind::kClone:
      return p.tau_kill <= p.t_min;
    case PolicyKind::kSRestart:
      return p.tau_kill - p.tau_est <= p.t_min;
    case PolicyKind::kSResume:
      return p.tau_kill - p.tau_est <= (1.0 - p.tau_est / p.deadline) * p.t_min;
    default:
      return true;  // Hadoop-NS kills nothing
  }
}

struct Prediction {
  double pocd;
  double machine_time;
};

Prediction predict(const TestConf& c, const core::JobParams& p) {
  if (c.policy == PolicyKind::kHadoopNS) {
    return {core::pocd_no_speculation(p),
            core::machine_time_no_speculation(p)};
  }
  const Strategy s = trace::analytic_strategy(c.policy);
  const auto r = static_cast<double>(c.r);
  return {core::pocd(s, p, r),
          s == Strategy::kSpeculativeResume
              ? core::machine_time_s_resume_exact(p, r)
              : core::machine_time(s, p, r)};
}

class Conformance : public ::testing::Test,
                    public ::testing::WithParamInterface<TestConf> {};

TEST_P(Conformance, SimulatorMatchesTheorems) {
  const TestConf& c = GetParam();
  const core::JobParams p = job_params(c);
  const Prediction model = predict(c, p);
  const auto sim =
      trace::replay_isolated(p, c.policy, c.r, kJobs).metrics;

  EXPECT_NEAR(sim.pocd(), model.pocd,
              kPocdHalfWidths * sim.pocd_ci() + kPocdFloor);

  if (!short_window(c, p)) {
    EXPECT_GE(model.machine_time, sim.mean_machine_time());
  } else if (c.beta * static_cast<double>(c.r + 1) > 2.0) {
    EXPECT_NEAR(sim.mean_machine_time(), model.machine_time,
                kMachineTimeTolerance * model.machine_time);
  }
}

// Short windows: Clone tau_kill = 8; S-Restart and S-Resume (10, 15).
// Long windows: Clone tau_kill = 15; S-Restart and S-Resume (5, 35).
INSTANTIATE_TEST_SUITE_P(
    Theorems, Conformance,
    ::testing::Values(
        TestConf{PolicyKind::kHadoopNS, 1.5, 0, 0.0, 0.0},
        TestConf{PolicyKind::kHadoopNS, 2.5, 0, 0.0, 0.0},
        TestConf{PolicyKind::kClone, 1.5, 1, 0.0, 8.0},
        TestConf{PolicyKind::kClone, 1.5, 4, 0.0, 8.0},
        TestConf{PolicyKind::kClone, 2.5, 0, 0.0, 8.0},
        TestConf{PolicyKind::kClone, 2.5, 2, 0.0, 8.0},
        TestConf{PolicyKind::kSRestart, 1.5, 1, 10.0, 15.0},
        TestConf{PolicyKind::kSRestart, 1.5, 4, 10.0, 15.0},
        TestConf{PolicyKind::kSRestart, 2.5, 0, 10.0, 15.0},
        TestConf{PolicyKind::kSRestart, 2.5, 2, 10.0, 15.0},
        TestConf{PolicyKind::kSResume, 1.5, 1, 10.0, 15.0},
        TestConf{PolicyKind::kSResume, 1.5, 4, 10.0, 15.0},
        TestConf{PolicyKind::kSResume, 2.5, 0, 10.0, 15.0},
        TestConf{PolicyKind::kSResume, 2.5, 2, 10.0, 15.0},
        TestConf{PolicyKind::kClone, 1.5, 1, 0.0, 15.0},
        TestConf{PolicyKind::kClone, 1.5, 4, 0.0, 15.0},
        TestConf{PolicyKind::kSRestart, 1.5, 1, 5.0, 35.0},
        TestConf{PolicyKind::kSRestart, 1.5, 4, 5.0, 35.0},
        TestConf{PolicyKind::kSResume, 1.5, 1, 5.0, 35.0},
        TestConf{PolicyKind::kSResume, 1.5, 4, 5.0, 35.0}),
    [](const ::testing::TestParamInfo<TestConf>& info) {
      const TestConf& c = info.param;
      std::string name = strategies::to_string(c.policy);
      std::erase(name, '-');
      return name + "_beta" + std::to_string(static_cast<int>(c.beta * 10)) +
             "_r" + std::to_string(c.r) + "_window" +
             std::to_string(static_cast<int>(c.tau_est)) + "to" +
             std::to_string(static_cast<int>(c.tau_kill));
    });

// Theorem 7 at equal r and short windows: Clone and S-Resume each beat
// S-Restart in simulated PoCD by more than the two CIs, and the
// failure-probability ratios of core/comparison agree in sign.
TEST(ConformanceTheorem7, SimulatedOrderingsMatchComparisonRatios) {
  const long long r = 1;
  const core::JobParams p =
      job_params(TestConf{PolicyKind::kSRestart, 1.5, r, 10.0, 15.0});
  const auto run = [&](PolicyKind policy) {
    return trace::replay_isolated(p, policy, r, kJobs).metrics;
  };
  const auto clone = run(PolicyKind::kClone);
  const auto restart = run(PolicyKind::kSRestart);
  const auto resume = run(PolicyKind::kSResume);

  EXPECT_GT(clone.pocd() - restart.pocd(), clone.pocd_ci() + restart.pocd_ci());
  EXPECT_LT(core::clone_vs_restart_ratio(p, static_cast<double>(r)), 1.0);
  EXPECT_GT(resume.pocd() - restart.pocd(),
            resume.pocd_ci() + restart.pocd_ci());
  EXPECT_GT(core::restart_vs_resume_ratio(p, static_cast<double>(r)), 1.0);
}

}  // namespace
}  // namespace chronos
