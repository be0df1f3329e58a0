#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace chronos::sim {
namespace {

JobOutcome make_outcome(bool met, double machine_time, double cost) {
  JobOutcome o;
  o.met_deadline = met;
  o.machine_time = machine_time;
  o.cost = cost;
  o.attempts_launched = 3;
  o.attempts_killed = 1;
  return o;
}

TEST(RunMetrics, PocdIsFractionMeetingDeadline) {
  RunMetrics m;
  m.record(make_outcome(true, 10.0, 1.0));
  m.record(make_outcome(true, 20.0, 2.0));
  m.record(make_outcome(false, 30.0, 3.0));
  m.record(make_outcome(true, 40.0, 4.0));
  EXPECT_EQ(m.jobs(), 4u);
  EXPECT_NEAR(m.pocd(), 0.75, 1e-12);
  EXPECT_NEAR(m.mean_machine_time(), 25.0, 1e-12);
  EXPECT_NEAR(m.mean_cost(), 2.5, 1e-12);
}

TEST(RunMetrics, EmptyPocdThrows) {
  RunMetrics m;
  EXPECT_THROW(m.pocd(), PreconditionError);
  EXPECT_THROW(m.pocd_ci(), PreconditionError);
}

TEST(RunMetrics, UtilityCombinesTerms) {
  RunMetrics m;
  m.record(make_outcome(true, 10.0, 100.0));
  m.record(make_outcome(false, 10.0, 300.0));
  // PoCD = 0.5, mean cost = 200.
  const double u = m.utility(1e-3, 0.1);
  EXPECT_NEAR(u, std::log10(0.4) - 1e-3 * 200.0, 1e-12);
}

TEST(RunMetrics, UtilityNegativeInfinityBelowRmin) {
  RunMetrics m;
  m.record(make_outcome(false, 10.0, 1.0));
  const double u = m.utility(1e-4, 0.5);
  EXPECT_TRUE(std::isinf(u));
  EXPECT_LT(u, 0.0);
}

TEST(RunMetrics, AttemptCountersAccumulate) {
  RunMetrics m;
  m.record(make_outcome(true, 1.0, 1.0));
  m.record(make_outcome(true, 1.0, 1.0));
  EXPECT_EQ(m.attempts_launched(), 6u);
  EXPECT_EQ(m.attempts_killed(), 2u);
}

TEST(RunMetrics, CiShrinksWithJobs) {
  RunMetrics small;
  RunMetrics large;
  for (int i = 0; i < 10; ++i) {
    small.record(make_outcome(i % 2 == 0, 1.0, 1.0));
  }
  for (int i = 0; i < 1000; ++i) {
    large.record(make_outcome(i % 2 == 0, 1.0, 1.0));
  }
  EXPECT_GT(small.pocd_ci(), large.pocd_ci());
}

TEST(RunMetrics, OutcomesPreserved) {
  RunMetrics m;
  m.set_retain_outcomes(true);
  auto o = make_outcome(true, 5.0, 2.0);
  o.job_id = 42;
  o.r_used = 3;
  m.record(o);
  ASSERT_EQ(m.outcomes().size(), 1u);
  EXPECT_EQ(m.outcomes()[0].job_id, 42);
  EXPECT_EQ(m.outcomes()[0].r_used, 3);
}

}  // namespace
}  // namespace chronos::sim
