// Progress observation and the two completion-time estimators (Eq. 30/31).
#include "mapreduce/progress.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace chronos::mapreduce {
namespace {

/// A running attempt launched at t=10 with a 5 s JVM startup and 100 s of
/// work on the whole split.
AttemptRecord running_attempt(double offset = 0.0) {
  AttemptRecord a;
  a.state = AttemptState::kRunning;
  a.launch_time = 10.0;
  a.jvm_time = 5.0;
  a.start_offset = offset;
  a.work_duration = 100.0 * (1.0 - offset);
  return a;
}

TEST(TrueProgress, ZeroDuringJvmStartup) {
  const auto a = running_attempt();
  EXPECT_EQ(a.true_progress(10.0), 0.0);
  EXPECT_EQ(a.true_progress(14.9), 0.0);
}

TEST(TrueProgress, LinearDuringProcessing) {
  const auto a = running_attempt();
  EXPECT_NEAR(a.true_progress(15.0), 0.0, 1e-12);
  EXPECT_NEAR(a.true_progress(65.0), 0.5, 1e-12);
  EXPECT_NEAR(a.true_progress(115.0), 1.0, 1e-12);
  EXPECT_NEAR(a.true_progress(200.0), 1.0, 1e-12);
}

TEST(TrueProgress, ResumedAttemptStartsAtOffset) {
  const auto a = running_attempt(0.4);
  EXPECT_NEAR(a.true_progress(14.0), 0.4, 1e-12);
  // Half of the remaining work: 0.4 + 0.6/2 = 0.7 at t = 15 + 30.
  EXPECT_NEAR(a.true_progress(45.0), 0.7, 1e-12);
}

TEST(ObserveProgress, UnavailableBeforeFirstReport) {
  const auto a = running_attempt();
  Rng rng(1);
  const auto report =
      observe_progress(a, 12.0, ProgressNoiseConfig::none(), rng);
  EXPECT_FALSE(report.available);
}

TEST(ObserveProgress, ExactWithoutNoise) {
  const auto a = running_attempt();
  Rng rng(1);
  const auto report =
      observe_progress(a, 65.0, ProgressNoiseConfig::none(), rng);
  ASSERT_TRUE(report.available);
  EXPECT_NEAR(report.progress, 0.5, 1e-9);
}

TEST(ObserveProgress, NoiseShrinksWithHistory) {
  const auto a = running_attempt();
  auto noise = ProgressNoiseConfig::realistic();
  Rng rng(7);
  // Early observations scatter more than late ones.
  double early_err = 0.0;
  double late_err = 0.0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const auto early = observe_progress(a, 20.0, noise, rng);
    const auto late = observe_progress(a, 100.0, noise, rng);
    early_err += std::abs(early.progress - a.true_progress(20.0));
    late_err += std::abs(late.progress - a.true_progress(100.0));
  }
  // Normalize by the true progress levels before comparing.
  early_err /= n * a.true_progress(20.0);
  late_err /= n * a.true_progress(100.0);
  EXPECT_GT(early_err, late_err);
}

TEST(ObserveProgress, EarlyBiasUnderReports) {
  const auto a = running_attempt();
  ProgressNoiseConfig noise;
  noise.bias0 = 0.3;
  noise.sigma0 = 0.0;  // isolate the bias
  noise.decay = 30.0;
  Rng rng(7);
  const auto report = observe_progress(a, 20.0, noise, rng);
  ASSERT_TRUE(report.available);
  EXPECT_LT(report.progress, a.true_progress(20.0));
}

TEST(EstimateCompletion, NaiveChargesJvmAsWork) {
  auto a = running_attempt();
  // At t = 65: true progress 0.5, elapsed 55 s. Naive estimate:
  // 10 + 55 / 0.5 = 120 > true finish 115.
  ProgressReport report;
  report.available = true;
  report.time = 65.0;
  report.progress = 0.5;
  const double naive =
      estimate_completion_time(a, report, EstimatorKind::kHadoopNaive);
  EXPECT_NEAR(naive, 120.0, 1e-9);
}

TEST(EstimateCompletion, ChronosCorrectsForJvm) {
  auto a = running_attempt();
  // First report at JVM-ready (t=15, progress ~0).
  a.reported = true;
  ProgressReport report;
  report.available = true;
  report.time = 65.0;
  report.progress = 0.5;
  const double chronos =
      estimate_completion_time(a, report, EstimatorKind::kChronos);
  EXPECT_NEAR(chronos, 115.0, 1e-9);  // exact true finish
}

TEST(EstimateCompletion, ChronosMoreAccurateThanNaive) {
  auto a = running_attempt();
  a.reported = true;
  ProgressReport report;
  report.available = true;
  report.time = 65.0;
  report.progress = 0.5;
  const double truth = a.planned_finish();
  const double naive =
      estimate_completion_time(a, report, EstimatorKind::kHadoopNaive);
  const double chronos =
      estimate_completion_time(a, report, EstimatorKind::kChronos);
  EXPECT_LT(std::abs(chronos - truth), std::abs(naive - truth));
}

TEST(EstimateCompletion, UnknownWithoutReport) {
  const auto a = running_attempt();
  ProgressReport unavailable;
  EXPECT_TRUE(std::isinf(estimate_completion_time(
      a, unavailable, EstimatorKind::kHadoopNaive)));

  // Chronos also needs the first-report anchor.
  ProgressReport report;
  report.available = true;
  report.time = 65.0;
  report.progress = 0.5;
  EXPECT_TRUE(std::isinf(
      estimate_completion_time(a, report, EstimatorKind::kChronos)));
}

TEST(EstimateCompletion, CompleteProgressReturnsNow) {
  auto a = running_attempt();
  ProgressReport report;
  report.available = true;
  report.time = 130.0;
  report.progress = 1.0;
  EXPECT_EQ(estimate_completion_time(a, report, EstimatorKind::kHadoopNaive),
            130.0);
}

TEST(ResumeOffset, AddsAnticipatedBytes) {
  auto a = running_attempt();
  a.reported = true;
  // At t = 65 the original processed 0.5 in 50 s of processing time; during
  // a 5 s JVM startup of the new attempts it will process 0.5/50*5 = 0.05.
  const double offset = resume_offset(a, 0.5, 65.0);
  EXPECT_NEAR(offset, 0.55, 1e-9);
}

TEST(ResumeOffset, NoAnchorFallsBackToObserved) {
  const auto a = running_attempt();
  EXPECT_NEAR(resume_offset(a, 0.5, 65.0), 0.5, 1e-12);
}

TEST(ResumeOffset, ClampedToOne) {
  auto a = running_attempt();
  a.reported = true;
  EXPECT_LE(resume_offset(a, 0.999, 15.5), 1.0);
}

TEST(ResumeOffset, RejectsBadProgress) {
  const auto a = running_attempt();
  EXPECT_THROW(resume_offset(a, -0.1, 65.0), PreconditionError);
  EXPECT_THROW(resume_offset(a, 1.1, 65.0), PreconditionError);
}

}  // namespace
}  // namespace chronos::mapreduce
