// Sharded multi-process sweeps: the fixed-lease partitioner (disjoint,
// covering, balanced — property-tested over random grids), the shared
// dedup rule (FinishedCells), journal merge (fingerprint validation,
// overlap dedup, conflict and gap detection), and the golden suite: every
// committed manifest reproduces its committed report bytes unsharded, after
// a torn journal is resumed, as merged shards (one torn and resumed), and
// when a shard journal seeds an unsharded run. The sweeprun CLI is checked
// end to end: a shard/merge/resume round trip on tiny.ini, plus its error
// behavior.
//
// To regenerate the manifest goldens after an intentional change, run
//   CHRONOS_REGOLD=1 test_shard --gtest_filter='*GoldenShardEquivalence*'
// and review the diff under tests/golden/.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "test_util.h"
#include "trace/planner.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;
using testing::check_or_regold;
using testing::CommandResult;
using testing::kGoldenDir;
using testing::read_golden;
using testing::run_command;
using testing::slurp;
using testing::spill;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_shard_" + name;
}

// --- partitioner -----------------------------------------------------------

void expect_partition(std::size_t num_cells, std::size_t count) {
  std::vector<int> covered(num_cells, 0);
  std::size_t smallest = num_cells + 1;
  std::size_t largest = 0;
  for (std::size_t index = 0; index < count; ++index) {
    const std::vector<std::size_t> lease =
        partition_cells(num_cells, index, count);
    // Strided: shard `index` owns index, index + count, ... below num_cells,
    // ascending, so its cells are exactly those congruent to it.
    for (std::size_t k = 0; k < lease.size(); ++k) {
      ASSERT_EQ(lease[k], index + k * count)
          << num_cells << " cells / " << count << " shards, shard " << index;
      ASSERT_LT(lease[k], num_cells);
      ++covered[lease[k]];
    }
    if (index >= num_cells) {
      ASSERT_TRUE(lease.empty()) << "shard " << index << " of " << count;
    }
    smallest = std::min(smallest, lease.size());
    largest = std::max(largest, lease.size());
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    ASSERT_EQ(covered[c], 1) << "cell " << c << " covered " << covered[c]
                             << " times";
  }
  if (num_cells > 0) {
    ASSERT_LE(largest - smallest, 1u) << "unbalanced partition";
  }
}

TEST(ShardPartition, StridesAreDisjointCoveringAndBalanced) {
  for (const std::size_t num_cells : {0u, 1u, 2u, 5u, 6u, 24u, 107u}) {
    for (std::size_t count = 1; count <= 16; ++count) {
      expect_partition(num_cells, count);
    }
  }
}

TEST(ShardPartition, RandomGridsPartitionCorrectly) {
  Rng rng(987654321);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const auto num_cells =
        static_cast<std::size_t>(rng.uniform_int(0, 5000));
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 64));
    expect_partition(num_cells, count);
  }
}

TEST(ShardPartition, HugeGridsDoNotWrapTheStride) {
  // Stepping a cursor by `count` past the last cell would wrap around 2^64
  // here and hand out cells again forever.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(partition_cells(kMax, kMax - 1, kMax),
            std::vector<std::size_t>{kMax - 1});
  EXPECT_EQ(partition_cells(kMax, 0, kMax), std::vector<std::size_t>{0});
  EXPECT_TRUE(partition_cells(kMax - 1, kMax - 1, kMax).empty());
  const std::size_t half = std::size_t{1} << 63;
  EXPECT_EQ(partition_cells(kMax, half - 1, half),
            std::vector<std::size_t>{half - 1});
  EXPECT_EQ(partition_cells(kMax, half - 2, half),
            (std::vector<std::size_t>{half - 2, kMax - 1}));
  const std::size_t count = std::size_t{1} << 40;
  const std::size_t last = count - 1;
  EXPECT_EQ(partition_cells(3 * count, last, count),
            (std::vector<std::size_t>{last, last + count, last + 2 * count}));
  EXPECT_EQ(partition_cells(count + 1, 0, count),
            (std::vector<std::size_t>{0, count}));
}

TEST(ShardPartition, ValidatesIndexAndCount) {
  EXPECT_THROW(partition_cells(10, 0, 0), PreconditionError);
  EXPECT_THROW(partition_cells(10, 3, 3), PreconditionError);
  EXPECT_THROW(partition_cells(10, 5, 2), PreconditionError);
  EXPECT_EQ(partition_cells(10, 2, 3), (std::vector<std::size_t>{2, 5, 8}));
  EXPECT_EQ(partition_cells(10, 0, 3), (std::vector<std::size_t>{0, 3, 6, 9}));
  EXPECT_EQ(partition_cells(2, 1, 3), std::vector<std::size_t>{1});
  EXPECT_TRUE(partition_cells(2, 2, 3).empty());
}

TEST(ShardPartition, JournalPathsFollowTheSharedDirectoryConvention) {
  EXPECT_EQ(shard_journal_path("journals", "tiny", 0, 2),
            "journals/tiny.shard-1-of-2.journal");
  EXPECT_EQ(shard_journal_path("journals/", "tiny", 1, 2),
            "journals/tiny.shard-2-of-2.journal");
  EXPECT_EQ(shard_journal_path("", "fig3", 4, 5),
            "./fig3.shard-5-of-5.journal");
  EXPECT_THROW(shard_journal_path("d", "x", 2, 2), PreconditionError);
}

// --- a small real sweep (mirrors test_checkpoint.cpp) ----------------------

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "shard";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kSResume};
  spec.axes = {{.name = "x", .values = {0.0, 1.0, 2.0}, .labels = {}}};
  spec.replications = 2;
  spec.seed = 21;
  return spec;
}

SweepHooks small_hooks() {
  SweepHooks hooks;
  hooks.setup = [](const SweepPoint& point) {
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

std::map<std::size_t, std::string> encoded_cells(
    const std::map<std::size_t, CellAggregate>& cells) {
  std::map<std::size_t, std::string> encoded;
  for (const auto& [cell, aggregate] : cells) {
    encoded.emplace(cell, encode_journal_entry({cell, aggregate}));
  }
  return encoded;
}

TEST(ShardedSweep, RunsOnlyTheOwnedCellRange) {
  const SweepSpec spec = small_spec();
  SweepOptions options;
  options.threads = 2;
  options.cells = partition_cells(spec.num_cells(), 0, 2);
  const SweepResult result = run_sweep(spec, small_hooks(), options);
  ASSERT_EQ(result.cells.size(), options.cells->size());
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    EXPECT_EQ(result.cells[i].point.cell, (*options.cells)[i]);
  }

  // Any ascending list works, gaps included, and an empty list runs
  // nothing; an unsorted or out-of-grid list is rejected.
  options.cells = std::vector<std::size_t>{1, 4};
  EXPECT_EQ(run_sweep(spec, small_hooks(), options).cells.size(), 2u);
  options.cells = std::vector<std::size_t>{};
  EXPECT_TRUE(run_sweep(spec, small_hooks(), options).cells.empty());
  options.cells = std::vector<std::size_t>{4, 1};
  EXPECT_THROW(run_sweep(spec, small_hooks(), options), PreconditionError);
  options.cells = std::vector<std::size_t>{spec.num_cells()};
  EXPECT_THROW(run_sweep(spec, small_hooks(), options), PreconditionError);
}

TEST(ShardedSweep, ShardResumedFromAFusedJournalRunsNothing) {
  // A journal that already holds every cell — what --merge writes — handed
  // to one shard: the shard restores its own slice, drops the rest, and
  // executes zero replications.
  const SweepSpec spec = small_spec();
  const std::string path = temp_path("fused.journal");
  std::remove(path.c_str());
  SweepOptions options;
  options.threads = 2;
  options.journal = path;
  const SweepResult full = run_sweep(spec, small_hooks(), options);

  std::atomic<int> runs{0};
  SweepHooks counting = small_hooks();
  const CellRunner run = counting.run;
  counting.run = [&runs, run](const SweepPoint& point, std::uint64_t seed,
                              const SharedCell& shared) {
    runs.fetch_add(1);
    return run(point, seed, shared);
  };
  options.cells = partition_cells(spec.num_cells(), 1, 2);
  const SweepResult shard = run_sweep(spec, counting, options);
  EXPECT_EQ(runs.load(), 0);
  ASSERT_EQ(shard.cells.size(), options.cells->size());
  for (std::size_t i = 0; i < shard.cells.size(); ++i) {
    const std::size_t cell = (*options.cells)[i];
    EXPECT_EQ(shard.cells[i].point.cell, cell);
    EXPECT_EQ(encode_journal_entry({cell, shard.cells[i].aggregate}),
              encode_journal_entry({cell, full.cells[cell].aggregate}));
  }
  std::remove(path.c_str());
}

TEST(ShardedSweep, AnyShardCountMergesToTheSingleRunResult) {
  const SweepSpec spec = small_spec();
  const SweepHooks hooks = small_hooks();
  const std::string fingerprint = spec_fingerprint(spec);
  const std::size_t cells = spec.num_cells();

  // Ground truth: one journaled, unsharded run.
  const std::string full_path = temp_path("full.journal");
  std::remove(full_path.c_str());
  SweepOptions full_options;
  full_options.threads = 2;
  full_options.journal = full_path;
  const std::string expected_csv =
      to_csv(run_sweep(spec, hooks, full_options));
  const auto expected_cells =
      encoded_cells(read_journal(full_path, fingerprint).cells);
  ASSERT_EQ(expected_cells.size(), cells);

  for (const std::size_t count : {1u, 2u, 3u, 4u, 7u}) {
    std::vector<std::string> paths;
    for (std::size_t index = 0; index < count; ++index) {
      const std::string path = temp_path(
          "part_" + std::to_string(count) + "_" + std::to_string(index));
      std::remove(path.c_str());
      SweepOptions options;
      // Vary the thread count per shard: numbers must not depend on it.
      options.threads = 1 + static_cast<int>(index % 3);
      options.cells = partition_cells(cells, index, count);
      options.journal = path;
      run_sweep(spec, hooks, options);
      paths.push_back(path);
    }
    const FinishedCells merged = merge_journals(paths, fingerprint, cells);
    EXPECT_EQ(merged.duplicates(), 0u);
    // The fused map is entry-for-entry the single run's journal...
    EXPECT_EQ(encoded_cells(merged.cells()), expected_cells)
        << count << " shards";
    // ...and renders to the same report bytes.
    EXPECT_EQ(to_csv(assemble_result(spec, merged.cells())), expected_csv)
        << count << " shards";
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }
  }
  std::remove(full_path.c_str());
}

TEST(ShardedSweep, ContiguousShardJournalsResumeUnderTheStridedLease) {
  // Shard journals written when --shard I/N owned the contiguous range
  // [n*I/N, n*(I+1)/N): resumed under the strided lease, each shard runs
  // only the cells it lacks, keeps the old ones, and the merge dedups the
  // overlap byte-exactly into the single-run result.
  const SweepSpec spec = small_spec();
  const SweepHooks hooks = small_hooks();
  const std::string fingerprint = spec_fingerprint(spec);
  const std::size_t cells = spec.num_cells();
  ASSERT_EQ(cells, 6u);

  const std::string full_path = temp_path("upgrade_full.journal");
  std::remove(full_path.c_str());
  SweepOptions full_options;
  full_options.threads = 2;
  full_options.journal = full_path;
  const std::string expected_csv =
      to_csv(run_sweep(spec, hooks, full_options));
  const auto expected_cells =
      encoded_cells(read_journal(full_path, fingerprint).cells);

  const std::string dir = ::testing::TempDir();
  std::vector<std::string> paths;
  for (std::size_t index = 0; index < 2; ++index) {
    const std::string path =
        shard_journal_path(dir, "upgrade_" + spec.name, index, 2);
    std::remove(path.c_str());
    SweepOptions options;
    options.threads = 2;
    options.journal = path;
    std::vector<std::size_t> contiguous(cells / 2);
    std::iota(contiguous.begin(), contiguous.end(), index * cells / 2);
    options.cells = contiguous;
    run_sweep(spec, hooks, options);
    paths.push_back(path);
  }

  for (std::size_t index = 0; index < 2; ++index) {
    std::atomic<int> runs{0};
    SweepHooks counting = hooks;
    counting.run = [&runs, &hooks](const SweepPoint& point,
                                   std::uint64_t seed,
                                   const SharedCell& shared) {
      runs.fetch_add(1);
      return hooks.run(point, seed, shared);
    };
    SweepOptions options;
    options.threads = 2;
    options.journal = paths[index];
    options.cells = partition_cells(cells, index, 2);
    const SweepResult shard = run_sweep(spec, counting, options);
    ASSERT_EQ(shard.cells.size(), 3u);
    // Shard 1 of 2 owns {0, 2, 4} and held [0, 3); shard 2 owns {1, 3, 5}
    // and held [3, 6): each lacks exactly one cell.
    EXPECT_EQ(runs.load(), spec.replications) << "shard " << index;
    EXPECT_EQ(read_journal(paths[index], fingerprint).cells.size(), 4u);
  }

  const FinishedCells merged = merge_journals(paths, fingerprint, cells);
  EXPECT_EQ(merged.duplicates(), 2u);  // cells 1 and 4, byte-identical
  EXPECT_EQ(encoded_cells(merged.cells()), expected_cells);
  EXPECT_EQ(to_csv(assemble_result(spec, merged.cells())), expected_csv);
  for (const std::string& path : paths) {
    std::remove(path.c_str());
  }
  std::remove(full_path.c_str());
}

// --- the shared dedup rule -------------------------------------------------

CellAggregate tagged_aggregate(double tag) {
  CellAggregate aggregate;
  aggregate.runs = 1;
  aggregate.jobs = 1;
  aggregate.pocd = {1, tag, 0.0, 0.0, tag, tag};
  return aggregate;
}

std::string add_error(FinishedCells& finished, const JournalEntry& entry,
                      const std::string& source) {
  try {
    finished.add(entry, source);
  } catch (const PreconditionError& error) {
    return error.what();
  }
  ADD_FAILURE() << "add accepted cell " << entry.cell;
  return {};
}

TEST(FinishedCells, StoresFirstCountsDuplicatesAndRejectsConflicts) {
  FinishedCells finished(3);
  // A first result is stored.
  EXPECT_TRUE(finished.add({1, tagged_aggregate(1.0)}, "a"));
  EXPECT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished.duplicates(), 0u);
  EXPECT_EQ(encoded_cells(finished.cells()).at(1),
            encode_journal_entry({1, tagged_aggregate(1.0)}));

  // A byte-identical duplicate is counted, not stored twice.
  EXPECT_FALSE(finished.add({1, tagged_aggregate(1.0)}, "b"));
  EXPECT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished.duplicates(), 1u);

  // A byte-different result is an error naming the cell and both sources,
  // and leaves the stored result alone.
  const std::string conflict =
      add_error(finished, {1, tagged_aggregate(2.0)}, "source-c");
  EXPECT_NE(conflict.find("conflicting result for cell 1"), std::string::npos)
      << conflict;
  EXPECT_NE(conflict.find("a and source-c"), std::string::npos) << conflict;
  EXPECT_EQ(encoded_cells(finished.cells()).at(1),
            encode_journal_entry({1, tagged_aggregate(1.0)}));

  // A cell outside the grid is rejected.
  const std::string outside =
      add_error(finished, {3, tagged_aggregate(1.0)}, "d");
  EXPECT_NE(outside.find("cell 3 from d is beyond the 3-cell grid"),
            std::string::npos)
      << outside;
  EXPECT_EQ(finished.size(), 1u);
  EXPECT_EQ(finished.duplicates(), 1u);
}

// --- merge error handling --------------------------------------------------

/// Writes a journal holding `entries` under `fingerprint`.
void write_journal(const std::string& path, const std::string& fingerprint,
                   const std::vector<JournalEntry>& entries) {
  JournalWriter writer(path, fingerprint);
  for (const JournalEntry& entry : entries) {
    writer.append(entry);
  }
}

void expect_merge_error(const std::vector<std::string>& paths,
                        const std::string& fingerprint,
                        std::size_t num_cells, const std::string& needle) {
  try {
    merge_journals(paths, fingerprint, num_cells);
    FAIL() << "merge accepted; expected error containing '" << needle << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << error.what();
  }
}

TEST(JournalMerge, DetectsMissingForeignConflictGapAndOverflow) {
  const std::string a = temp_path("merge_a");
  const std::string b = temp_path("merge_b");

  // Missing journal.
  std::remove(a.c_str());
  expect_merge_error({a}, "fp1", 2, "missing or unreadable");

  // Foreign fingerprint.
  write_journal(a, "other", {{0, tagged_aggregate(1.0)}});
  expect_merge_error({a}, "fp1", 1, "fingerprint mismatch");

  // Conflict: same cell, different aggregate — a hard error naming both.
  write_journal(a, "fp1", {{0, tagged_aggregate(1.0)}});
  write_journal(b, "fp1", {{0, tagged_aggregate(2.0)}, {1, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 2, "different aggregates");

  // Gap: nobody finished cell 2.
  write_journal(b, "fp1", {{1, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 3, "missing cell(s): 2");

  // An entry beyond the grid: the journal is not this sweep's.
  write_journal(b, "fp1", {{5, tagged_aggregate(3.0)}});
  expect_merge_error({a, b}, "fp1", 2, "beyond the 2-cell grid");

  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(JournalMerge, DeduplicatesIdenticalOverlap) {
  // Two shards that (say, after a mis-configured overlap or a re-run with
  // count 1) both finished cell 0 with identical bytes: merge succeeds and
  // reports the duplicate instead of failing.
  const std::string a = temp_path("dup_a");
  const std::string b = temp_path("dup_b");
  write_journal(a, "fp1",
                {{0, tagged_aggregate(1.0)}, {1, tagged_aggregate(2.0)}});
  write_journal(b, "fp1",
                {{0, tagged_aggregate(1.0)}, {2, tagged_aggregate(3.0)}});
  const FinishedCells merged = merge_journals({a, b}, "fp1", 3);
  EXPECT_EQ(merged.duplicates(), 1u);
  EXPECT_EQ(merged.size(), 3u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- manifest golden equivalence ------------------------------------------

/// Every committed manifest file name, sorted: one GoldenShardEquivalence
/// case each, so a new manifest is checked without editing this file.
std::vector<std::string> committed_manifests() {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHRONOS_MANIFEST_DIR)) {
    if (entry.path().extension() == ".ini") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Cuts a journal in the middle of its last line, as a crash mid-append
/// leaves it.
void tear_last_entry(const std::string& path) {
  const std::string content = slurp(path);
  ASSERT_GT(content.size(), 1u) << path;
  const std::size_t before = content.rfind('\n', content.size() - 2);
  ASSERT_NE(before, std::string::npos) << path << " holds no entry";
  spill(path, content.substr(0, before + 1 + (content.size() - before) / 2));
}

SweepOptions journaled(const Manifest& manifest, int threads,
                       const std::string& journal) {
  SweepOptions options;
  options.threads = threads;
  options.journal = journal;
  options.journal_salt = manifest.journal_salt;
  return options;
}

/// Runs every shard of a manifest into per-shard journals named by `tag`
/// and returns their paths. When `kill_shard` is set, that shard's journal
/// is torn mid-entry after its run and the shard re-run, exactly like a
/// crashed cluster machine that was restarted.
std::vector<std::string> run_shards(const Manifest& manifest,
                                    const SweepHooks& hooks,
                                    const std::string& tag, std::size_t count,
                                    std::optional<std::size_t> kill_shard) {
  std::vector<std::string> paths;
  for (std::size_t index = 0; index < count; ++index) {
    const std::string path =
        shard_journal_path(::testing::TempDir(), tag, index, count);
    std::remove(path.c_str());
    SweepOptions options =
        journaled(manifest, 1 + static_cast<int>(index % 4), path);
    options.cells = partition_cells(manifest.spec.num_cells(), index, count);
    run_sweep(manifest.spec, hooks, options);
    if (kill_shard == index) {
      tear_last_entry(path);
      options.threads = 2;  // restart on a "different machine"
      run_sweep(manifest.spec, hooks, options);
    }
    paths.push_back(path);
  }
  return paths;
}

class GoldenShardEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenShardEquivalence, EveryRunLayoutReproducesTheCommittedBytes) {
  const std::string file = GetParam();
  Manifest manifest;
  try {
    manifest = load_manifest(std::string(CHRONOS_MANIFEST_DIR) + "/" + file);
  } catch (const std::exception& error) {
    FAIL() << error.what();
  }
  // A manifest is pinned by the goldens of its [sweep] name.
  const std::string stem = manifest.spec.name;
  const std::string tag = "golden_" + file;
  const SweepHooks hooks = make_hooks(manifest);
  const std::string fingerprint =
      spec_fingerprint(manifest.spec, manifest.journal_salt);
  const std::size_t cells = manifest.spec.num_cells();

  // Ground truth: one unsharded journaled run, pinned by committed goldens
  // so a regression in any layer (engine, journal, reports) shows up as a
  // byte diff.
  const std::string journal = temp_path(tag + ".journal");
  std::remove(journal.c_str());
  const SweepResult full =
      run_sweep(manifest.spec, hooks, journaled(manifest, 4, journal));
  const std::string csv = to_csv(full);
  const std::string json = to_json(full);
  const std::string table = to_table(full).str();
  check_or_regold(stem + ".csv", csv);
  check_or_regold(stem + ".json", json);
  if (std::filesystem::exists(kGoldenDir + stem + ".txt")) {
    check_or_regold(stem + ".txt", table);
  }
  const auto expect_same_bytes = [&](const SweepResult& result,
                                     const std::string& layout) {
    EXPECT_EQ(to_csv(result), csv) << layout;
    EXPECT_EQ(to_json(result), json) << layout;
    EXPECT_EQ(to_table(result).str(), table) << layout;
  };

  // The unsharded journal torn mid-entry, resumed on another thread count.
  tear_last_entry(journal);
  expect_same_bytes(
      run_sweep(manifest.spec, hooks, journaled(manifest, 2, journal)),
      "torn unsharded journal resumed");

  // 2 shards with shard 1 torn and resumed, then merged; shard 1's journal
  // also seeds an unsharded run.
  const std::vector<std::string> halves =
      run_shards(manifest, hooks, tag, 2, std::size_t{0});
  expect_same_bytes(
      assemble_result(manifest.spec,
                      merge_journals(halves, fingerprint, cells).cells()),
      "2 shards, one torn and resumed");
  spill(journal, slurp(halves[0]));
  expect_same_bytes(
      run_sweep(manifest.spec, hooks, journaled(manifest, 3, journal)),
      "unsharded run seeded by shard 1/2");

  // 5 shards, clean.
  const std::vector<std::string> fifths =
      run_shards(manifest, hooks, tag, 5, std::nullopt);
  expect_same_bytes(
      assemble_result(manifest.spec,
                      merge_journals(fifths, fingerprint, cells).cells()),
      "5 shards");

  for (const std::vector<std::string>& paths : {halves, fifths}) {
    for (const std::string& path : paths) {
      std::remove(path.c_str());
    }
  }
  std::remove(journal.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Manifests, GoldenShardEquivalence,
    ::testing::ValuesIn(committed_manifests()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return std::filesystem::path(info.param).stem().string();
    });

// --- sweep replications keep aggregates only -------------------------------

TEST(SweepReplication, KeepsNoOutcomeRowsAndTheSameAggregates) {
  // The last dag_pipeline cell (S-Resume, fan-out 4), built by the
  // manifest's own hooks. Its first replication is replayed as the engine
  // runs it and again with per-job rows opted in: the engine's replay holds
  // no rows, and every aggregate the reports read is the same to the bit.
  Manifest manifest;
  try {
    manifest = load_manifest(std::string(CHRONOS_MANIFEST_DIR) +
                             "/dag_pipeline.ini");
  } catch (const std::exception& error) {
    FAIL() << error.what();
  }
  SweepHooks hooks = make_hooks(manifest);
  const CellRunner run = hooks.run;
  std::optional<CellInstance> first;  // one thread: no concurrent writes
  hooks.run = [&first, run](const SweepPoint& point, std::uint64_t seed,
                            const SharedCell& shared) {
    CellInstance instance = run(point, seed, shared);
    if (!first.has_value()) {
      first = instance;
    }
    return instance;
  };
  SweepOptions options;
  options.cells = std::vector<std::size_t>{manifest.spec.num_cells() - 1};
  run_sweep(manifest.spec, hooks, options);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->config.policy, PolicyKind::kSResume);

  const trace::ExperimentResult lean =
      trace::run_experiment(*first->jobs, first->config);
  trace::ExperimentConfig with_rows = first->config;
  with_rows.scheduler.retain_outcomes = true;
  const trace::ExperimentResult rows =
      trace::run_experiment(*first->jobs, with_rows);

  const sim::RunMetrics& a = lean.metrics;
  const sim::RunMetrics& b = rows.metrics;
  EXPECT_TRUE(a.outcomes().empty());
  ASSERT_EQ(b.outcomes().size(), first->jobs->size());
  EXPECT_EQ(a.jobs(), b.jobs());
  EXPECT_EQ(a.pocd(), b.pocd());
  EXPECT_EQ(a.mean_cost(), b.mean_cost());
  EXPECT_EQ(a.mean_machine_time(), b.mean_machine_time());
  EXPECT_EQ(a.total_r_used(), b.total_r_used());
  EXPECT_GT(a.total_r_used(), 0);  // S-Resume planned extra attempts
  EXPECT_EQ(a.attempts_launched(), b.attempts_launched());
  EXPECT_EQ(a.attempts_killed(), b.attempts_killed());
  EXPECT_EQ(a.attempts_failed(), b.attempts_failed());
  EXPECT_EQ(lean.events_executed, rows.events_executed);
}

// --- sweeprun CLI ----------------------------------------------------------

const std::string kSweeprun = CHRONOS_SWEEPRUN_BIN;

/// A manifest with the keys of each section in reverse order and a leading
/// comment: the same sweep in another layout.
std::string reordered(const std::string& manifest) {
  std::string out = "# reordered copy\n";
  std::vector<std::string> keys;
  const auto flush = [&out, &keys] {
    for (auto key = keys.rbegin(); key != keys.rend(); ++key) {
      out += *key + "\n";
    }
    keys.clear();
  };
  std::istringstream in(manifest);
  for (std::string line; std::getline(in, line);) {
    if (line.find('=') != std::string::npos && line.front() != '#') {
      keys.push_back(line);
    } else {
      flush();
      out += line + "\n";
    }
  }
  flush();
  return out;
}

TEST(SweeprunCli, ShardMergeAndResumeRoundTripReproducesTheGolden) {
  // The shard, merge and resume paths through the built binary, on tiny.ini
  // (6 cells). Every command runs inside a fresh temp directory, so nothing
  // the manifest's [output] or [shard] sections name lands anywhere else.
  const std::string dir = temp_path("roundtrip");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto sweeprun = [&dir](const std::string& args) {
    const CommandResult result =
        run_command("cd '" + dir + "' && " + kSweeprun + " " + args);
    EXPECT_EQ(result.status, 0) << args << "\n" << result.output;
    return result.output;
  };
  const auto expect_golden = [&dir](const std::string& csv) {
    EXPECT_EQ(slurp(dir + "/" + csv), read_golden("tiny.csv")) << csv;
  };
  const std::string tiny = std::string(CHRONOS_MANIFEST_DIR) + "/tiny.ini";

  // Two shards; shard 1's journal is torn mid-entry and the shard resumed:
  // it keeps two of its three cells and reruns the torn one.
  sweeprun(tiny + " --shard 1/2 --shard-dir shards --threads 2");
  sweeprun(tiny + " --shard 2/2 --shard-dir shards --threads 3");
  const std::string shard1 = dir + "/shards/tiny.shard-1-of-2.journal";
  tear_last_entry(shard1);
  EXPECT_NE(sweeprun(tiny + " --shard 1/2 --shard-dir shards --threads 1")
                .find("2/3 cells already done"),
            std::string::npos);

  // --merge renders the golden and writes a fused journal, from which an
  // unsharded rerun restores every cell.
  sweeprun(tiny + " --merge 2 --shard-dir shards --no-table --csv merged.csv"
                  " --journal fused.journal");
  expect_golden("merged.csv");
  EXPECT_NE(sweeprun(tiny + " --threads 2 --journal fused.journal --no-table"
                            " --csv refused.csv")
                .find("6/6 cells already done"),
            std::string::npos);
  expect_golden("refused.csv");

  // A copied shard journal seeds an unsharded run: one journal format, one
  // cell numbering.
  spill(dir + "/xmode.journal", slurp(shard1));
  EXPECT_NE(sweeprun(tiny + " --threads 2 --journal xmode.journal --no-table"
                            " --csv xmode.csv")
                .find("3/6 cells already done"),
            std::string::npos);
  expect_golden("xmode.csv");

  // The journal fingerprint covers the cell templates' values, not their
  // layout: a key-reordered copy resumes every cell, a reseeded one starts
  // fresh.
  const std::string manifest = slurp(tiny);
  spill(dir + "/reordered.ini", reordered(manifest));
  EXPECT_NE(sweeprun("reordered.ini --threads 2 --journal fused.journal"
                     " --no-table --csv reordered.csv")
                .find("6/6 cells already done"),
            std::string::npos);
  expect_golden("reordered.csv");
  std::string reseeded = manifest;
  const std::size_t seed = reseeded.find("\nseed = 11\n");
  ASSERT_NE(seed, std::string::npos);
  reseeded.replace(seed, 11, "\nseed = 12\n");
  spill(dir + "/reseeded.ini", reseeded);
  EXPECT_NE(sweeprun("reseeded.ini --threads 2 --journal fused.journal"
                     " --no-table --csv reseeded.csv")
                .find("belongs to a different sweep; starting fresh"),
            std::string::npos);

  std::filesystem::remove_all(dir);
}

TEST(SweeprunCli, MalformedManifestExitsNonzeroWithFileAndLine) {
  const std::string path = temp_path("bad_manifest.ini");
  spill(path, "[sweep]\npolicies = clone\n\nnot a key value line\n");
  const CommandResult result = run_command(kSweeprun + " " + path);
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find(path), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("manifest line 4"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(SweeprunCli, MissingManifestFileExitsNonzero) {
  const std::string path = temp_path("no_such.ini");
  std::remove(path.c_str());
  const CommandResult result = run_command(kSweeprun + " " + path);
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("cannot open manifest"), std::string::npos)
      << result.output;
}

TEST(SweeprunCli, UnknownFlagsAndBadValuesExitWithUsage) {
  const std::string manifest = temp_path("ok_manifest.ini");
  spill(manifest, "[sweep]\npolicies = clone\n");

  CommandResult result =
      run_command(kSweeprun + " " + manifest + " --frobnicate");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("sweeprun: unknown flag '--frobnicate'"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos)
      << result.output;

  for (const char* bad : {"0/3", "4/3", "x/3", "2", "2/"}) {
    result = run_command(kSweeprun + " " + manifest + " --shard " +
                         std::string(bad));
    EXPECT_EQ(result.status, 2) << bad << ": " << result.output;
    EXPECT_NE(result.output.find("sweeprun: --shard wants I/N"),
              std::string::npos)
        << result.output;
  }

  // Numeric flags reject garbage, trailing junk, signs and empty values
  // instead of reading a prefix (or nothing) as a number.
  for (const char* bad : {"abc", "2x", "-1", ""}) {
    result = run_command(kSweeprun + " " + manifest + " --threads '" + bad +
                         "'");
    EXPECT_EQ(result.status, 2) << "--threads '" << bad << "': "
                                << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << result.output;
  }

  // The flags of the removed live-lease controller/worker mode, of the
  // removed journal compaction and of the removed replication override are
  // gone.
  for (const char* flag :
       {"--controller", "--worker", "--name", "--lease-cells",
        "--heartbeat-ms", "--lease-timeout-ms", "--progress-timeout-ms",
        "--worker-timeout-ms", "--connect-attempts", "--fault",
        "--compact", "--reps"}) {
    result = run_command(kSweeprun + " " + manifest + " " + flag + " 3");
    EXPECT_EQ(result.status, 2) << flag << ": " << result.output;
    EXPECT_NE(result.output.find("sweeprun: unknown flag '" +
                                 std::string(flag) + "'"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos)
        << result.output;
  }

  // Flag diagnostics consistently carry the tool-name prefix so cluster
  // logs attribute them.
  result = run_command(kSweeprun + " " + manifest + " --journal");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("sweeprun: missing value after --journal"),
            std::string::npos)
      << result.output;

  // No manifest at all.
  result = run_command(kSweeprun);
  EXPECT_EQ(result.status, 2) << result.output;

  // --merge with no shard count anywhere.
  result = run_command(kSweeprun + " " + manifest + " --merge");
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("--merge needs a shard count"),
            std::string::npos)
      << result.output;

  std::remove(manifest.c_str());
}

TEST(SweeprunCli, EmptyKillWindowExitsNonzeroNamingTheFactors) {
  // tau_kill = tau_est would make every extra S-Restart attempt free in the
  // model, so Algorithm 1 would plan max_r; planning refuses it instead.
  const std::string manifest = temp_path("empty_window.ini");
  spill(manifest,
        "[sweep]\nname = empty_window\npolicies = s-restart\n"
        "[trace]\nnum_jobs = 4\n"
        "[planner]\ntau_est_factor = 0.5\ntau_kill_factor = 0.5\n");
  const CommandResult result =
      run_command(kSweeprun + " " + manifest + " --fresh --no-table");
  EXPECT_NE(result.status, 0) << result.output;
  EXPECT_NE(result.output.find("empty kill window"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("tau_kill_factor > tau_est_factor"),
            std::string::npos)
      << result.output;
  std::remove(manifest.c_str());
}

TEST(SweeprunCli, MergeFailsCleanlyOnMissingShardJournals) {
  const std::string manifest = temp_path("merge_manifest.ini");
  spill(manifest,
        "[sweep]\nname = lost\npolicies = clone\n[shard]\ncount = 2\ndir = " +
            ::testing::TempDir() + "\n");
  const CommandResult result =
      run_command(kSweeprun + " " + manifest + " --merge");
  EXPECT_EQ(result.status, 1) << result.output;
  EXPECT_NE(result.output.find("missing or unreadable"), std::string::npos)
      << result.output;
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace chronos::exp
