// Experiment-sweep engine: thread pool behaviour, grid expansion, CI
// aggregation math, report determinism across thread counts, and the
// empty/one-cell edge cases.
#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "exp/aggregate.h"
#include "exp/checkpoint.h"
#include "exp/report.h"
#include "exp/threadpool.h"
#include "trace/planner.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;

// --- thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, WaitRethrowsFirstTaskError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed; the pool stays usable.
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, RejectsInvalidArguments) {
  EXPECT_THROW(ThreadPool(0), PreconditionError);
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), PreconditionError);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

// --- thread pool stress ----------------------------------------------------

TEST(ThreadPoolStress, ExceptionsPropagateWhenEveryTaskThrows) {
  // Every task throws: the waking path after a failed task must still let
  // the queue drain, and wait() must surface the first error.
  ThreadPool pool(2);
  std::atomic<int> attempted{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&attempted] {
      attempted.fetch_add(1);
      throw std::runtime_error("boom");
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(attempted.load(), 64);  // failures never wedge the queue

  // The pool stays usable: errors are consumed one wait() at a time.
  pool.submit([] { throw std::logic_error("again"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolStress, DestructorDrainsTasksStillQueued) {
  // Destroying the pool without wait() must run every queued task to
  // completion before joining — no drops, no deadlock, no terminate.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // No wait(): the destructor owns the drain.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolStress, DestructorSwallowsPendingTaskError) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("unobserved"); });
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // must not std::terminate; later tasks still ran
  EXPECT_EQ(ran.load(), 8);
}

// --- aggregate ------------------------------------------------------------

RunRecord synthetic_run(int met, int missed, double cost_per_job) {
  RunRecord run;
  for (int i = 0; i < met + missed; ++i) {
    sim::JobOutcome outcome;
    outcome.job_id = i;
    outcome.met_deadline = i < met;
    outcome.cost = cost_per_job;
    outcome.machine_time = 2.0 * cost_per_job;
    outcome.r_used = 2;
    outcome.attempts_launched = 3;
    outcome.attempts_killed = 1;
    run.result.metrics.record(outcome);
  }
  return run;
}

TEST(Aggregate, StudentTIntervalOfKnownSamples) {
  std::vector<RunRecord> runs;
  for (const double utility : {1.0, 2.0, 3.0}) {
    runs.push_back(synthetic_run(3, 1, 10.0));
    runs.back().has_utility = true;
    runs.back().utility = utility;
  }
  const MetricSummary summary = aggregate_runs(runs).utility;
  EXPECT_EQ(summary.count, 3u);
  EXPECT_DOUBLE_EQ(summary.mean, 2.0);
  EXPECT_DOUBLE_EQ(summary.stddev, 1.0);
  // Student-t interval: t_{0.975, 2} * s / sqrt(n).
  EXPECT_NEAR(summary.ci95, 4.3027 / std::sqrt(3.0), 1e-12);
  EXPECT_DOUBLE_EQ(summary.min, 1.0);
  EXPECT_DOUBLE_EQ(summary.max, 3.0);
}

TEST(Aggregate, OneRunAndUnreportedUtilityEdgeCases) {
  const std::vector<RunRecord> runs = {synthetic_run(3, 1, 7.0)};
  const CellAggregate aggregate = aggregate_runs(runs);
  EXPECT_EQ(aggregate.cost.count, 1u);
  EXPECT_DOUBLE_EQ(aggregate.cost.mean, 7.0);
  // No spread estimate from one run.
  EXPECT_DOUBLE_EQ(aggregate.cost.ci95, 0.0);
  // No run reported a utility: an all-zero summary.
  EXPECT_EQ(aggregate.utility.count, 0u);
  EXPECT_DOUBLE_EQ(aggregate.utility.mean, 0.0);
  EXPECT_DOUBLE_EQ(aggregate.utility.ci95, 0.0);
  EXPECT_DOUBLE_EQ(aggregate.utility.min, 0.0);
  EXPECT_DOUBLE_EQ(aggregate.utility.max, 0.0);
}

TEST(Aggregate, AggregatesReplicationsOfACell) {
  std::vector<RunRecord> runs;
  runs.push_back(synthetic_run(/*met=*/4, /*missed=*/0, /*cost=*/10.0));
  runs.push_back(synthetic_run(/*met=*/2, /*missed=*/2, /*cost=*/20.0));
  const CellAggregate aggregate = aggregate_runs(runs);

  EXPECT_EQ(aggregate.runs, 2u);
  EXPECT_EQ(aggregate.jobs, 8u);
  EXPECT_DOUBLE_EQ(aggregate.pocd.mean, 0.75);  // (1.0 + 0.5) / 2
  // Sample stddev of {1.0, 0.5} is 0.25 * sqrt(2); the Student-t interval
  // is t_{0.975, 1} * s / sqrt(2).
  EXPECT_NEAR(aggregate.pocd.ci95, 12.706 * 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(aggregate.cost.mean, 15.0);
  EXPECT_DOUBLE_EQ(aggregate.machine_time.mean, 30.0);
  EXPECT_DOUBLE_EQ(aggregate.mean_r.mean, 2.0);
  EXPECT_EQ(aggregate.attempts_launched, 24u);
  EXPECT_EQ(aggregate.attempts_killed, 8u);
  EXPECT_EQ(aggregate.utility.count, 0u);  // no run reported a utility
}

TEST(Aggregate, UtilityOnlyCountsRunsThatReportedOne) {
  std::vector<RunRecord> runs;
  runs.push_back(synthetic_run(3, 1, 10.0));
  runs.back().has_utility = true;
  runs.back().utility = -0.5;
  runs.push_back(synthetic_run(3, 1, 10.0));
  const CellAggregate aggregate = aggregate_runs(runs);
  EXPECT_EQ(aggregate.utility.count, 1u);
  EXPECT_DOUBLE_EQ(aggregate.utility.mean, -0.5);
}

TEST(Aggregate, RejectsEmptyCell) {
  EXPECT_THROW(aggregate_runs({}), PreconditionError);
}

// --- spec validation and grid expansion -----------------------------------

TEST(SweepSpec, ValidatesItsInputs) {
  SweepSpec spec;  // no policies
  spec.policies.clear();
  EXPECT_THROW(spec.validate(), PreconditionError);

  spec.policies = {PolicyKind::kHadoopNS};
  spec.replications = 0;
  EXPECT_THROW(spec.validate(), PreconditionError);

  spec.replications = 1;
  spec.axes = {{.name = "theta", .values = {}, .labels = {}}};
  EXPECT_THROW(spec.validate(), PreconditionError);

  spec.axes = {{.name = "theta", .values = {1.0, 2.0}, .labels = {"one"}}};
  EXPECT_THROW(spec.validate(), PreconditionError);

  spec.axes = {{.name = "theta", .values = {1.0, 2.0}, .labels = {}}};
  EXPECT_NO_THROW(spec.validate());
}

TEST(SweepSpec, CountsCells) {
  SweepSpec spec;
  spec.policies = {PolicyKind::kClone, PolicyKind::kSResume};
  EXPECT_EQ(spec.num_cells(), 2u);  // no axes: one point per policy
  spec.axes = {{.name = "a", .values = {1, 2, 3}, .labels = {}},
               {.name = "b", .values = {1, 2}, .labels = {}}};
  EXPECT_EQ(spec.num_cells(), 12u);
}

TEST(SweepPoint, UnknownAxisThrows) {
  SweepPoint point;
  point.coordinates = {{.name = "theta", .value = 1.0, .label = "1"}};
  EXPECT_DOUBLE_EQ(point.value("theta"), 1.0);
  EXPECT_THROW(point.value("beta"), PreconditionError);
}

// --- running sweeps -------------------------------------------------------

/// Tiny but real experiment: a handful of short jobs on a small cluster,
/// built by the run hook alone (no setup hook).
CellInstance tiny_run(const SweepPoint& point, std::uint64_t seed,
                      const SharedCell& /*shared*/) {
  trace::TraceConfig config;
  config.num_jobs = 6;
  config.duration_hours = 0.2;
  config.mean_tasks = 4.0;
  config.max_tasks = 10;
  config.seed = 5;

  auto jobs = generate_trace(config);
  trace::PlannerConfig planner;
  const trace::SpotPriceModel prices;
  plan_trace(jobs, point.policy, planner, prices);

  CellInstance instance;
  instance.jobs =
      std::make_shared<const std::vector<trace::TracedJob>>(std::move(jobs));
  sim::NodeConfig node;
  node.containers = 4;
  instance.config.policy = point.policy;
  instance.config.cluster = sim::ClusterConfig::uniform(4, node);
  instance.config.seed = seed;
  return instance;
}

const SweepHooks tiny_cell{.run = tiny_run, .setup = {}};

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.name = "tiny";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kSResume};
  spec.axes = {{.name = "x", .values = {0.0, 1.0, 2.0}, .labels = {}}};
  spec.replications = 2;
  spec.seed = 33;
  return spec;
}

TEST(RunSweep, ReportsAreIdenticalForAnyThreadCount) {
  const SweepSpec spec = tiny_spec();
  const auto serial = run_sweep(spec, tiny_cell, {.threads = 1});
  const auto parallel = run_sweep(spec, tiny_cell, {.threads = 8});
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
  EXPECT_EQ(to_json(serial), to_json(parallel));
  EXPECT_EQ(to_table(serial).str(), to_table(parallel).str());
}

TEST(RunSweep, CellsComeBackInGridOrder) {
  const auto result = run_sweep(tiny_spec(), tiny_cell, {.threads = 4});
  ASSERT_EQ(result.cells.size(), 6u);
  // Policy-major, last axis fastest.
  EXPECT_EQ(result.cells[0].policy_name, "Hadoop-NS");
  EXPECT_DOUBLE_EQ(result.cells[0].point.value("x"), 0.0);
  EXPECT_DOUBLE_EQ(result.cells[2].point.value("x"), 2.0);
  EXPECT_EQ(result.cells[3].policy_name, "S-Resume");
  EXPECT_DOUBLE_EQ(result.cells[3].point.value("x"), 0.0);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.aggregate.runs, 2u);
    EXPECT_EQ(cell.aggregate.jobs, 12u);  // 6 jobs x 2 replications
  }
}

TEST(RunSweep, OneCellNoAxes) {
  SweepSpec spec;
  spec.name = "one";
  spec.policies = {PolicyKind::kHadoopNS};
  spec.replications = 1;
  const auto result = run_sweep(spec, tiny_cell, {.threads = 1});
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.axis_names.empty());
  EXPECT_EQ(result.cells[0].aggregate.runs, 1u);
  EXPECT_GT(result.cells[0].aggregate.pocd.mean, 0.0);
}

TEST(RunSweep, PresetCancelStopsBeforeAnyCellFinishes) {
  std::atomic<bool> cancel{true};
  SweepOptions options;
  options.threads = 2;
  options.cancel = &cancel;
  EXPECT_THROW(run_sweep(tiny_spec(), tiny_cell, options), SweepCancelled);
}

TEST(RunSweep, CancelledRunDrainsToJournalAndResumesByteIdentically) {
  // The SIGINT/SIGTERM drain guarantee, minus the signals: cancel mid-run,
  // every finished cell is journaled and synced, and a rerun with the same
  // journal produces reports byte-identical to an uninterrupted run.
  //
  // Cancellation is only observable at a replication-round barrier, so the
  // spec must finish cells across different rounds: with this grid and
  // seed, four cells have a pocd ci95 of exactly 0 after the base two
  // replications (one policy always either meets or misses the deadline)
  // while the other two sit near 1.06 — a 0.5 target splits them, so the
  // first barrier journals four cells and leaves two mid-flight.
  SweepSpec spec = tiny_spec();
  spec.adaptive.metric = "pocd";
  spec.adaptive.target_ci95 = 0.5;
  spec.adaptive.batch = 2;
  spec.adaptive.max_replications = 12;
  const std::string journal =
      ::testing::TempDir() + "chronos_cancel_tiny.journal";
  std::remove(journal.c_str());
  const std::string expected =
      to_csv(run_sweep(spec, tiny_cell, {.threads = 1}));

  std::atomic<bool> cancel{false};
  SweepOptions options;
  options.threads = 1;
  options.journal = journal;
  options.cancel = &cancel;
  options.on_progress = [&cancel](const SweepProgress& progress) {
    if (progress.cells_done >= 1) {
      cancel.store(true);
    }
  };
  EXPECT_THROW(run_sweep(spec, tiny_cell, options), SweepCancelled);

  // The four converged cells survived, already on disk; the two
  // still-running cells were abandoned mid-round.
  const auto drained = read_journal(journal, spec_fingerprint(spec));
  EXPECT_TRUE(drained.compatible);
  EXPECT_EQ(drained.cells.size(), 4u);
  EXPECT_EQ(drained.cells.count(0), 0u);
  EXPECT_EQ(drained.cells.count(2), 0u);

  SweepOptions resume;
  resume.threads = 1;
  resume.journal = journal;
  const auto resumed = run_sweep(spec, tiny_cell, resume);
  EXPECT_EQ(to_csv(resumed), expected);
  std::remove(journal.c_str());
}

TEST(RunSweep, EmptySpecThrows) {
  SweepSpec spec;
  spec.policies.clear();
  EXPECT_THROW(run_sweep(spec, tiny_cell, {.threads = 1}),
               PreconditionError);
  SweepSpec valid = tiny_spec();
  EXPECT_THROW(run_sweep(valid, SweepHooks{}, {.threads = 1}),
               PreconditionError);
}

TEST(RunSweep, ReplicationSeedsAreIndependent) {
  SweepSpec spec;
  spec.policies = {PolicyKind::kSResume};
  spec.replications = 3;
  spec.seed = 9;
  const auto result = run_sweep(spec, tiny_cell, {.threads = 2});
  // Replications used different seeds, so there is run-to-run spread in
  // machine time (the simulator injects seed-dependent noise).
  EXPECT_GT(result.cells[0].aggregate.machine_time.stddev, 0.0);
}

TEST(RunSweep, RunHookErrorsPropagate) {
  SweepSpec spec = tiny_spec();
  const SweepHooks broken{
      .run = [](const SweepPoint&, std::uint64_t,
                const SharedCell&) -> CellInstance {
        throw std::runtime_error("run hook exploded");
      },
      .setup = {}};
  EXPECT_THROW(run_sweep(spec, broken, {.threads = 2}), std::runtime_error);
}

// --- setup hook and adaptive replication -----------------------------------

/// Hooks whose setup builds each cell's trace once; the job count encodes
/// the cell's axis index so aliasing between cells is detectable in the
/// aggregates.
SweepHooks counting_hooks(std::atomic<int>& setups) {
  SweepHooks hooks;
  hooks.setup = [&setups](const SweepPoint& point) {
    setups.fetch_add(1);
    trace::TraceConfig config;
    config.num_jobs = 4 + static_cast<int>(point.index("x"));
    config.duration_hours = 0.2;
    config.mean_tasks = 4.0;
    config.max_tasks = 10;
    config.seed = 5;
    auto jobs = generate_trace(config);
    trace::PlannerConfig planner;
    const trace::SpotPriceModel prices;
    plan_trace(jobs, point.policy, planner, prices);
    SharedCell shared;
    shared.jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        std::move(jobs));
    return shared;
  };
  hooks.run = [](const SweepPoint& point, std::uint64_t seed,
                 const SharedCell& shared) {
    CellInstance instance;
    instance.jobs = shared.jobs;
    sim::NodeConfig node;
    node.containers = 4;
    instance.config.policy = point.policy;
    instance.config.cluster = sim::ClusterConfig::uniform(4, node);
    instance.config.seed = seed;
    return instance;
  };
  return hooks;
}

TEST(CellSetupHook, RunsOncePerCellAndSharesAcrossReplications) {
  const SweepSpec spec = tiny_spec();  // 6 cells x 2 replications
  std::atomic<int> setups{0};
  const auto result = run_sweep(spec, counting_hooks(setups), {.threads = 4});
  EXPECT_EQ(setups.load(), 6);  // once per cell, never per replication
  for (const auto& cell : result.cells) {
    // jobs-per-run encodes the axis index the setup hook saw.
    const auto jobs_per_run = cell.aggregate.jobs / cell.aggregate.runs;
    EXPECT_EQ(jobs_per_run, 4 + cell.point.index("x"));
  }
}

TEST(CellSetupHook, NearlyEqualAxisValuesDoNotAlias) {
  // 0.1 + 0.2 != 0.3 by one ulp: a cache keyed on the double value (as the
  // old bench::parallel_plan_cells float-keyed maps were) is one rounding
  // away from aliasing or missing such cells. Keying on the axis *index*
  // makes collisions impossible; each cell must get its own setup product.
  SweepSpec spec;
  spec.name = "alias";
  spec.policies = {PolicyKind::kHadoopNS};
  spec.axes = {{.name = "x", .values = {0.3, 0.1 + 0.2}, .labels = {}}};
  spec.replications = 1;
  ASSERT_NE(spec.axes[0].values[0], spec.axes[0].values[1]);

  std::atomic<int> setups{0};
  const auto result = run_sweep(spec, counting_hooks(setups), {.threads = 2});
  EXPECT_EQ(setups.load(), 2);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].point.index("x"), 0u);
  EXPECT_EQ(result.cells[1].point.index("x"), 1u);
  // Distinct setup products: the index-4 cell has 4 jobs, index-1 cell 5.
  EXPECT_EQ(result.cells[0].aggregate.jobs, 4u);
  EXPECT_EQ(result.cells[1].aggregate.jobs, 5u);
}

TEST(SweepPoint, IndexLooksUpAxisPosition) {
  SweepPoint point;
  point.coordinates = {
      {.name = "theta", .value = 1e-4, .label = "1e-4", .index = 2}};
  EXPECT_EQ(point.index("theta"), 2u);
  EXPECT_THROW(point.index("beta"), PreconditionError);
}

TEST(Adaptive, ValidatesItsInputs) {
  SweepSpec spec = tiny_spec();
  spec.adaptive.max_replications = 8;  // enabled, but target_ci95 unset
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.adaptive.target_ci95 = 0.1;
  spec.adaptive.batch = 0;
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.adaptive.batch = 2;
  spec.adaptive.max_replications = 1;  // below the base replication count
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.adaptive.max_replications = 8;
  spec.adaptive.metric = "latency";  // not a CellAggregate metric
  EXPECT_THROW(spec.validate(), PreconditionError);
  spec.adaptive.metric = "machine_time";
  EXPECT_NO_THROW(spec.validate());
}

TEST(Adaptive, LooseTargetStopsAtBaseReplications) {
  SweepSpec spec = tiny_spec();
  spec.adaptive.metric = "pocd";
  spec.adaptive.target_ci95 = 1e6;  // any CI satisfies it
  spec.adaptive.batch = 2;
  spec.adaptive.max_replications = 10;
  const auto result = run_sweep(spec, tiny_cell, {.threads = 4});
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.aggregate.runs, 2u);  // base count, no extra batches
  }
}

TEST(Adaptive, UnreachableTargetStopsAtTheCap) {
  SweepSpec spec = tiny_spec();
  spec.adaptive.metric = "machine_time";
  spec.adaptive.target_ci95 = 1e-12;  // machine-time spread can't reach it
  spec.adaptive.batch = 3;
  spec.adaptive.max_replications = 7;  // not a multiple of the batch size
  const auto result = run_sweep(spec, tiny_cell, {.threads = 4});
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.aggregate.runs, 7u);  // capped, batch clipped to the cap
  }
}

TEST(Adaptive, SingleBaseReplicationStillEstimatesACi) {
  // One base replication gives no spread; adaptivity must force a second
  // run before it can conclude anything.
  SweepSpec spec = tiny_spec();
  spec.replications = 1;
  spec.adaptive.metric = "pocd";
  spec.adaptive.target_ci95 = 1e6;
  spec.adaptive.batch = 1;
  spec.adaptive.max_replications = 6;
  const auto result = run_sweep(spec, tiny_cell, {.threads = 2});
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.aggregate.runs, 2u);
  }
}

TEST(Adaptive, ResultsAreIdenticalForAnyThreadCount) {
  SweepSpec spec = tiny_spec();
  spec.adaptive.metric = "machine_time";
  spec.adaptive.target_ci95 = 1e-12;
  spec.adaptive.batch = 2;
  spec.adaptive.max_replications = 6;
  const auto serial = run_sweep(spec, tiny_cell, {.threads = 1});
  const auto parallel = run_sweep(spec, tiny_cell, {.threads = 8});
  EXPECT_EQ(to_csv(serial), to_csv(parallel));
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

TEST(Adaptive, ExtendedSeedsExtendTheBaseSequence) {
  // The first `base` replications of an adaptive cell use exactly the seeds
  // a non-adaptive run would: adaptivity extends the per-cell seed stream,
  // it never reshuffles it. With a loose target the adaptive sweep *is* the
  // fixed sweep.
  SweepSpec fixed = tiny_spec();
  SweepSpec adaptive = tiny_spec();
  adaptive.adaptive.metric = "pocd";
  adaptive.adaptive.target_ci95 = 1e6;
  adaptive.adaptive.batch = 2;
  adaptive.adaptive.max_replications = 12;
  const auto fixed_result = run_sweep(fixed, tiny_cell, {.threads = 3});
  const auto adaptive_result = run_sweep(adaptive, tiny_cell, {.threads = 3});
  EXPECT_EQ(to_csv(fixed_result), to_csv(adaptive_result));
}

// --- reports --------------------------------------------------------------

TEST(Report, CsvShapeAndHeader) {
  const auto result = run_sweep(tiny_spec(), tiny_cell, {.threads = 2});
  const std::string csv = to_csv(result);
  EXPECT_EQ(csv.find("policy,x,replications,pocd_mean,pocd_ci95,"), 0u);
  // Header + one line per cell, newline-terminated.
  std::size_t lines = 0;
  for (const char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, 1u + result.cells.size());
  EXPECT_EQ(csv.back(), '\n');
}

TEST(Report, LabelsReplaceValuesInReports) {
  SweepSpec spec;
  spec.policies = {PolicyKind::kHadoopNS};
  spec.axes = {{.name = "workload",
                .values = {0.0, 1.0},
                .labels = {"Sort", "WordCount"}}};
  spec.replications = 1;
  const auto result = run_sweep(spec, tiny_cell, {.threads = 1});
  const std::string csv = to_csv(result);
  EXPECT_NE(csv.find("Hadoop-NS,Sort,"), std::string::npos);
  EXPECT_NE(csv.find("Hadoop-NS,WordCount,"), std::string::npos);
  // JSON keeps both the numeric value and the display label.
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"point_labels\":{\"workload\":\"Sort\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace chronos::exp
