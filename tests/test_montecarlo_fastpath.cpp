// Cross-validation of the order-statistic Monte-Carlo fast path.
//
// The fast path samples each task's winner directly from its order-statistic
// law (min of k i.i.d. Pareto(t_min, beta) draws ~ Pareto(t_min, k*beta)),
// so it consumes a different number of stream variates than the literal
// r+1-draw reference — the two must agree statistically, never sample-wise.
// Three-way agreement is asserted for every strategy across r in
// {0, 1, 4, 16}: fast path vs closed form, reference vs closed form, and
// fast path vs reference, each within Monte-Carlo confidence half-widths.
#include "core/montecarlo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "core/cost.h"
#include "core/pocd.h"
#include "test_util.h"

namespace chronos::core {
namespace {

using chronos::testing::default_job;

constexpr std::uint64_t kJobs = 30000;
// Slack added to CI half-widths: the ~95% intervals fail one run in twenty,
// which a fixed seed turns into a permanently red test for unlucky seeds.
constexpr double kPocdSlack = 0.006;

struct FastPathCase {
  Strategy strategy;
  long long r;
};

class MonteCarloFastPath : public ::testing::TestWithParam<FastPathCase> {};

TEST_P(MonteCarloFastPath, AgreesWithClosedFormAndReference) {
  const auto& c = GetParam();
  const auto p = default_job();
  const double analytic_pocd = pocd(c.strategy, p, static_cast<double>(c.r));

  Rng fast_rng(4242 + static_cast<std::uint64_t>(c.r));
  const auto fast = monte_carlo(c.strategy, p, c.r, kJobs, fast_rng);

  Rng ref_rng(9191 + static_cast<std::uint64_t>(c.r));
  const auto ref = monte_carlo_reference(c.strategy, p, c.r, kJobs, ref_rng);

  // PoCD: fast vs closed form, reference vs closed form, fast vs reference.
  EXPECT_NEAR(fast.pocd, analytic_pocd, fast.pocd_ci + kPocdSlack)
      << to_string(c.strategy) << " r=" << c.r;
  EXPECT_NEAR(ref.pocd, analytic_pocd, ref.pocd_ci + kPocdSlack)
      << to_string(c.strategy) << " r=" << c.r;
  EXPECT_NEAR(fast.pocd, ref.pocd, fast.pocd_ci + ref.pocd_ci + kPocdSlack)
      << to_string(c.strategy) << " r=" << c.r;

  // Machine time: both estimators agree with each other within their
  // combined standard errors (5 sigma plus a 1% model slack, matching the
  // closed-form agreement tests in test_cost.cpp).
  const double sem = 5.0 * (fast.machine_time_sem + ref.machine_time_sem) +
                     0.01 * ref.machine_time;
  EXPECT_NEAR(fast.machine_time, ref.machine_time, sem)
      << to_string(c.strategy) << " r=" << c.r;
}

TEST_P(MonteCarloFastPath, MachineTimeMatchesClosedForm) {
  const auto& c = GetParam();
  const auto p = default_job();
  const double r = static_cast<double>(c.r);
  // The published S-Resume form is an upper bound; the exact Lemma-1 form is
  // what simulation converges to.
  const double analytic = c.strategy == Strategy::kSpeculativeResume
                              ? machine_time_s_resume_exact(p, r)
                              : machine_time(c.strategy, p, r);
  Rng rng(777 + static_cast<std::uint64_t>(c.r));
  const auto mc = monte_carlo(c.strategy, p, c.r, 2 * kJobs, rng);
  EXPECT_NEAR(mc.machine_time, analytic,
              5.0 * mc.machine_time_sem + 0.01 * analytic)
      << to_string(c.strategy) << " r=" << c.r;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MonteCarloFastPath,
    ::testing::ValuesIn([] {
      std::vector<FastPathCase> cases;
      for (const Strategy s :
           {Strategy::kClone, Strategy::kSpeculativeRestart,
            Strategy::kSpeculativeResume}) {
        for (const long long r : {0LL, 1LL, 4LL, 16LL}) {
          cases.push_back(FastPathCase{s, r});
        }
      }
      return cases;
    }()));

TEST(MonteCarloFastPath, DeterministicForFixedSeed) {
  const auto p = default_job();
  for (const Strategy s :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    Rng a(12345);
    Rng b(12345);
    const auto ra = monte_carlo(s, p, 4, 2000, a);
    const auto rb = monte_carlo(s, p, 4, 2000, b);
    EXPECT_EQ(ra.pocd, rb.pocd) << to_string(s);
    EXPECT_EQ(ra.machine_time, rb.machine_time) << to_string(s);
    EXPECT_EQ(ra.machine_time_sem, rb.machine_time_sem) << to_string(s);

    Rng c(12345);
    Rng d(12345);
    const auto rc = monte_carlo_reference(s, p, 4, 2000, c);
    const auto rd = monte_carlo_reference(s, p, 4, 2000, d);
    EXPECT_EQ(rc.pocd, rd.pocd) << to_string(s);
    EXPECT_EQ(rc.machine_time, rd.machine_time) << to_string(s);
  }
}

TEST(MonteCarloFastPath, RejectsInvalidInputs) {
  const auto p = default_job();
  Rng rng(1);
  EXPECT_THROW(monte_carlo_reference(Strategy::kClone, p, -1, 10, rng),
               PreconditionError);
  EXPECT_THROW(monte_carlo_reference(Strategy::kClone, p, 0, 0, rng),
               PreconditionError);
}

// The r = 0 fast path must coincide with the reference draw-for-draw for
// Clone (one attempt, no order statistic involved): same seed, same stream.
TEST(MonteCarloFastPath, CloneR0MatchesReferenceExactly) {
  const auto p = default_job();
  Rng a(777);
  Rng b(777);
  const auto fast = monte_carlo(Strategy::kClone, p, 0, 5000, a);
  const auto ref = monte_carlo_reference(Strategy::kClone, p, 0, 5000, b);
  EXPECT_EQ(fast.pocd, ref.pocd);
  EXPECT_EQ(fast.machine_time, ref.machine_time);
}

}  // namespace
}  // namespace chronos::core
