// Checkpoint journal: entry encode/decode round-trips, checksum and
// torn-tail handling, spec fingerprints, and the headline crash-resume
// guarantee — truncate the journal mid-cell, restart at a different thread
// count, and the final CSV is byte-identical to an uninterrupted
// single-threaded run.
#include "exp/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "exp/report.h"
#include "exp/sweep.h"
#include "test_util.h"
#include "trace/planner.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;
using testing::slurp;
using testing::spill;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_" + name;
}

CellAggregate sample_aggregate() {
  CellAggregate aggregate;
  aggregate.runs = 3;
  aggregate.jobs = 18;
  aggregate.attempts_launched = 70;
  aggregate.attempts_killed = 12;
  aggregate.attempts_failed = 1;
  aggregate.events_executed = 12345;
  aggregate.pocd = {3, 0.75, 0.1, 0.2484, 0.6, 0.9};
  aggregate.cost = {3, 123.456, 7.5, 18.63, 110.0, 130.5};
  aggregate.machine_time = {3, 0.1 + 0.2, 0.0, 0.0, 0.3, 0.3};
  aggregate.mean_r = {3, 2.5, 0.5, 1.242, 2.0, 3.0};
  aggregate.utility = {2, -std::numeric_limits<double>::infinity(), 0.0,
                       0.0, -std::numeric_limits<double>::infinity(), -0.5};
  return aggregate;
}

void expect_summary_eq(const MetricSummary& a, const MetricSummary& b) {
  EXPECT_EQ(a.count, b.count);
  // Bit-exact comparison: the journal must round-trip doubles exactly.
  EXPECT_TRUE(std::memcmp(&a.mean, &b.mean, sizeof(double)) == 0);
  EXPECT_TRUE(std::memcmp(&a.stddev, &b.stddev, sizeof(double)) == 0);
  EXPECT_TRUE(std::memcmp(&a.ci95, &b.ci95, sizeof(double)) == 0);
  EXPECT_TRUE(std::memcmp(&a.min, &b.min, sizeof(double)) == 0);
  EXPECT_TRUE(std::memcmp(&a.max, &b.max, sizeof(double)) == 0);
}

TEST(Journal, EntryRoundTripsBitExactly) {
  JournalEntry entry;
  entry.cell = 42;
  entry.aggregate = sample_aggregate();
  const std::string line = encode_journal_entry(entry);
  const auto decoded = decode_journal_entry(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->cell, 42u);
  const CellAggregate& a = decoded->aggregate;
  const CellAggregate& b = entry.aggregate;
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.attempts_launched, b.attempts_launched);
  EXPECT_EQ(a.attempts_killed, b.attempts_killed);
  EXPECT_EQ(a.attempts_failed, b.attempts_failed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  expect_summary_eq(a.pocd, b.pocd);
  expect_summary_eq(a.cost, b.cost);
  expect_summary_eq(a.machine_time, b.machine_time);
  expect_summary_eq(a.mean_r, b.mean_r);
  expect_summary_eq(a.utility, b.utility);
}

TEST(Journal, DecodeRejectsCorruption) {
  JournalEntry entry;
  entry.cell = 7;
  entry.aggregate = sample_aggregate();
  const std::string line = encode_journal_entry(entry);

  EXPECT_FALSE(decode_journal_entry("").has_value());
  EXPECT_FALSE(decode_journal_entry("garbage").has_value());
  // Truncated anywhere — a torn write — must not decode.
  for (std::size_t cut : {line.size() - 1, line.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(decode_journal_entry(line.substr(0, cut)).has_value());
  }
  // A flipped payload byte fails the checksum.
  std::string flipped = line;
  flipped[6] = flipped[6] == '1' ? '2' : '1';
  EXPECT_FALSE(decode_journal_entry(flipped).has_value());
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "ckpt";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kSResume};
  spec.axes = {{.name = "x", .values = {0.0, 1.0}, .labels = {}}};
  spec.replications = 2;
  spec.seed = 21;
  return spec;
}

TEST(Journal, FingerprintTracksEverythingThatChangesNumbers) {
  const SweepSpec base = small_spec();
  const std::string fp = spec_fingerprint(base);
  EXPECT_EQ(fp, spec_fingerprint(base));  // stable

  SweepSpec changed = base;
  changed.seed = 22;
  EXPECT_NE(fp, spec_fingerprint(changed));

  changed = base;
  changed.replications = 3;
  EXPECT_NE(fp, spec_fingerprint(changed));

  changed = base;
  changed.axes[0].values[1] = 1.0000000001;
  EXPECT_NE(fp, spec_fingerprint(changed));

  changed = base;
  changed.policies.push_back(PolicyKind::kClone);
  EXPECT_NE(fp, spec_fingerprint(changed));

  changed = base;
  changed.adaptive.target_ci95 = 0.01;
  changed.adaptive.max_replications = 8;
  EXPECT_NE(fp, spec_fingerprint(changed));
}

TEST(Journal, ReadHandlesMissingAndForeignFiles) {
  const auto missing = read_journal(temp_path("no_such_journal"), "abc");
  EXPECT_FALSE(missing.found);
  EXPECT_FALSE(missing.compatible);

  const std::string path = temp_path("foreign_journal");
  spill(path, "chronos-journal v1 fp=deadbeef\n");
  const auto foreign = read_journal(path, "abc");
  EXPECT_TRUE(foreign.found);
  EXPECT_FALSE(foreign.compatible);
  std::remove(path.c_str());
}

TEST(Journal, ReadStopsAtTornTail) {
  const std::string path = temp_path("torn_journal");
  JournalEntry first;
  first.cell = 0;
  first.aggregate = sample_aggregate();
  JournalEntry second = first;
  second.cell = 1;
  {
    JournalWriter writer(path, "fp123");
    writer.append(first);
    writer.append(second);
  }
  std::string content = slurp(path);
  // Tear the last line in half, as a crash mid-write would.
  spill(path, content.substr(0, content.size() - 20));

  const auto contents = read_journal(path, "fp123");
  EXPECT_TRUE(contents.compatible);
  ASSERT_EQ(contents.cells.size(), 1u);
  EXPECT_EQ(contents.cells.count(0), 1u);
  std::remove(path.c_str());
}

// --- crash-resume on a real sweep ------------------------------------------

/// Tiny but real experiment (mirrors test_sweep.cpp); setup counts its
/// invocations so restarts can prove they skipped journaled cells.
SharedCell make_tiny_shared(const SweepPoint& point) {
  trace::TraceConfig config;
  config.num_jobs = 5;
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
}

SweepHooks counting_hooks(std::atomic<int>& setups) {
  SweepHooks hooks;
  hooks.setup = [&setups](const SweepPoint& point) {
    setups.fetch_add(1);
    return make_tiny_shared(point);
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

TEST(CrashResume, TruncatedJournalRestartIsByteIdentical) {
  const SweepSpec spec = small_spec();
  std::atomic<int> setups{0};
  const SweepHooks hooks = counting_hooks(setups);

  // Ground truth: uninterrupted, single-threaded, no journal.
  const std::string expected = to_csv(run_sweep(spec, hooks, {.threads = 1}));

  // A journaled multi-threaded run produces the same bytes.
  const std::string path = temp_path("crash_resume_journal");
  std::remove(path.c_str());
  SweepOptions journaled;
  journaled.threads = 4;
  journaled.journal = path;
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, journaled)), expected);

  // Simulate a crash mid-cell: keep the header and the first two entries,
  // then tear the third entry's line in half.
  const std::string content = slurp(path);
  std::size_t cut = 0;
  for (int lines = 0; lines < 3; ++cut) {
    lines += content[cut] == '\n' ? 1 : 0;
  }
  const std::size_t third_end = content.find('\n', cut);
  ASSERT_NE(third_end, std::string::npos);
  spill(path, content.substr(0, cut + (third_end - cut) / 2));

  // Restart at yet another thread count: only the lost cells re-run...
  setups.store(0);
  SweepOptions restarted;
  restarted.threads = 3;
  restarted.journal = path;
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, restarted)), expected);
  EXPECT_EQ(setups.load(), 2);  // 4 cells, 2 journaled, 2 recomputed

  // ...and a second restart replays everything from the journal.
  setups.store(0);
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, restarted)), expected);
  EXPECT_EQ(setups.load(), 0);
  std::remove(path.c_str());
}

TEST(CrashResume, IncompatibleJournalIsDiscardedAndRewritten) {
  const SweepSpec spec = small_spec();
  std::atomic<int> setups{0};
  const SweepHooks hooks = counting_hooks(setups);
  const std::string expected = to_csv(run_sweep(spec, hooks, {.threads = 1}));

  const std::string path = temp_path("incompatible_journal");
  spill(path, "chronos-journal v1 fp=0000000000000000\ncell 0 junk\n");
  SweepOptions options;
  options.threads = 2;
  options.journal = path;
  setups.store(0);
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, options)), expected);
  EXPECT_EQ(setups.load(), 4);  // nothing was reusable

  // The rewritten journal now carries the right fingerprint.
  const auto contents = read_journal(path, spec_fingerprint(spec));
  EXPECT_TRUE(contents.compatible);
  EXPECT_EQ(contents.cells.size(), 4u);
  std::remove(path.c_str());
}

TEST(CrashResume, ChangedJournalSaltInvalidatesTheJournal) {
  // The salt carries cell-hook state the spec cannot see (a manifest's
  // trace template, say). Changing it must discard the journal — resuming
  // another configuration's results would be silent corruption.
  const SweepSpec spec = small_spec();
  EXPECT_NE(spec_fingerprint(spec, "trace-v1"),
            spec_fingerprint(spec, "trace-v2"));
  EXPECT_EQ(spec_fingerprint(spec, ""), spec_fingerprint(spec));

  std::atomic<int> setups{0};
  const SweepHooks hooks = counting_hooks(setups);
  const std::string path = temp_path("salted_journal");
  std::remove(path.c_str());

  SweepOptions options;
  options.threads = 2;
  options.journal = path;
  options.journal_salt = "trace-v1";
  run_sweep(spec, hooks, options);
  EXPECT_EQ(setups.load(), 4);

  setups.store(0);
  run_sweep(spec, hooks, options);  // same salt: full resume
  EXPECT_EQ(setups.load(), 0);

  setups.store(0);
  options.journal_salt = "trace-v2";  // edited templates: start over
  run_sweep(spec, hooks, options);
  EXPECT_EQ(setups.load(), 4);
  std::remove(path.c_str());
}

TEST(CrashResume, AdaptiveSweepRestartIsByteIdentical) {
  SweepSpec spec = small_spec();
  spec.adaptive.metric = "machine_time";
  spec.adaptive.target_ci95 = 1e-9;  // unreachable: every cell hits the cap
  spec.adaptive.batch = 2;
  spec.adaptive.max_replications = 6;

  std::atomic<int> setups{0};
  const SweepHooks hooks = counting_hooks(setups);
  const std::string expected = to_csv(run_sweep(spec, hooks, {.threads = 1}));

  const std::string path = temp_path("adaptive_journal");
  std::remove(path.c_str());
  SweepOptions journaled;
  journaled.threads = 4;
  journaled.journal = path;
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, journaled)), expected);

  // Drop the last full entry and restart: same bytes.
  const std::string content = slurp(path);
  const std::size_t cut = content.rfind(
      '\n', content.size() - 2);  // start of the final entry line
  spill(path, content.substr(0, cut + 1));
  EXPECT_EQ(to_csv(run_sweep(spec, hooks, journaled)), expected);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chronos::exp
