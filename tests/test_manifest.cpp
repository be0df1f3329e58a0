// Sweep manifests: INI-subset parsing (sections, lists, quotes, comments,
// line-numbered errors), semantic validation (axis bindings, policies,
// adaptive config), and an end-to-end run of manifest-built hooks through
// the engine.
#include "exp/manifest.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "exp/report.h"
#include "exp/sweep.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;

constexpr const char* kFig3Like = R"(
# comment line
; another comment style

[sweep]
name = fig3_theta
policies = mantri, clone, s-restart, s-resume
replications = 3
seed = 41

[axis.theta]
values = 1e-6, 1e-5, 1e-4, 1e-3   # inline comment

[trace]
num_jobs = 900
duration_hours = 30
mean_tasks = 60
max_tasks = 600
seed = 77

[planner]
theta = @theta

[experiment]
cluster = large_scale
utility = on
r_min = baseline

[output]
csv = out.csv
journal = out.journal
table = off
)";

TEST(Manifest, ParsesTheFig3Grid) {
  const Manifest manifest = parse_manifest(kFig3Like);
  EXPECT_EQ(manifest.spec.name, "fig3_theta");
  ASSERT_EQ(manifest.spec.policies.size(), 4u);
  EXPECT_EQ(manifest.spec.policies[0], PolicyKind::kMantri);
  EXPECT_EQ(manifest.spec.policies[3], PolicyKind::kSResume);
  EXPECT_EQ(manifest.spec.replications, 3);
  EXPECT_EQ(manifest.spec.seed, 41u);
  ASSERT_EQ(manifest.spec.axes.size(), 1u);
  EXPECT_EQ(manifest.spec.axes[0].name, "theta");
  ASSERT_EQ(manifest.spec.axes[0].values.size(), 4u);
  EXPECT_DOUBLE_EQ(manifest.spec.axes[0].values[0], 1e-6);
  EXPECT_FALSE(manifest.spec.adaptive.enabled());

  EXPECT_EQ(manifest.trace.num_jobs, 900);
  EXPECT_DOUBLE_EQ(manifest.trace.mean_tasks, 60.0);
  EXPECT_EQ(manifest.trace.seed, 77u);

  ASSERT_TRUE(manifest.planner_theta.bound());
  EXPECT_EQ(manifest.planner_theta.axis, "theta");
  EXPECT_FALSE(manifest.cluster_testbed);
  EXPECT_TRUE(manifest.report_utility);
  EXPECT_EQ(manifest.r_min_mode, RMinMode::kBaseline);

  EXPECT_EQ(manifest.outputs.csv, "out.csv");
  EXPECT_EQ(manifest.outputs.journal, "out.journal");
  EXPECT_FALSE(manifest.outputs.table);
}

TEST(Manifest, ParsesAdaptiveAndQuotedLabels) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
policies = s-resume
replications = 2

[axis.workload]
values = 0, 1
labels = "Sort, heavy", WordCount

[adaptive]
metric = cost
target_ci95 = 0.5
batch = 3
max_replications = 12
)");
  ASSERT_EQ(manifest.spec.axes.size(), 1u);
  ASSERT_EQ(manifest.spec.axes[0].labels.size(), 2u);
  EXPECT_EQ(manifest.spec.axes[0].labels[0], "Sort, heavy");
  EXPECT_EQ(manifest.spec.axes[0].labels[1], "WordCount");
  EXPECT_TRUE(manifest.spec.adaptive.enabled());
  EXPECT_EQ(manifest.spec.adaptive.metric, "cost");
  EXPECT_DOUBLE_EQ(manifest.spec.adaptive.target_ci95, 0.5);
  EXPECT_EQ(manifest.spec.adaptive.batch, 3);
  EXPECT_EQ(manifest.spec.adaptive.max_replications, 12);
}

TEST(Manifest, BindsTraceFieldsToAxes) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
policies = clone

[axis.beta]
values = 1.1, 1.5, 1.9

[trace]
beta = @beta
deadline_factor = 2
)");
  ASSERT_TRUE(manifest.trace_beta.has_value());
  EXPECT_EQ(manifest.trace_beta->axis, "beta");
  ASSERT_TRUE(manifest.trace_deadline_factor.has_value());
  EXPECT_FALSE(manifest.trace_deadline_factor->bound());
  EXPECT_DOUBLE_EQ(manifest.trace_deadline_factor->fixed, 2.0);
}

void expect_parse_error(const std::string& text, const std::string& what) {
  try {
    parse_manifest(text);
    FAIL() << "expected a parse error mentioning '" << what << "'";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
        << error.what();
  }
}

TEST(Manifest, RejectsBadInput) {
  expect_parse_error("x = 1\n", "outside any [section]");
  expect_parse_error("[sweep\npolicies = clone\n", "malformed section");
  expect_parse_error("[]\n", "malformed section");
  expect_parse_error("[sweep]\njust text\n", "expected 'key = value'");
  expect_parse_error("[sweep]\npolicies = clone\n[sweep]\n",
                     "duplicate section");
  expect_parse_error("[sweep]\npolicies = clone\npolicies = mantri\n",
                     "duplicate key");
  expect_parse_error("[nope]\n[sweep]\npolicies = clone\n",
                     "unknown section [nope]");
  expect_parse_error("[sweep]\npolicies = clone\ntypo = 1\n",
                     "unknown key 'typo'");
  expect_parse_error("[output]\ncsv = a.csv\n", "missing required [sweep]");
  expect_parse_error("[sweep]\npolicies = warp-drive\n", "unknown policy");
  expect_parse_error("[sweep]\npolicies = clone\nreplications = lots\n",
                     "not an integer");
  expect_parse_error("[sweep]\npolicies = clone\n[axis.x]\n",
                     "missing required key 'values'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, banana\n",
      "not a number");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, 2\nlabels = a\n",
      "2 values but 1 labels");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[planner]\ntheta = @missing\n",
      "binds to an axis that does not exist");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\ncluster = cloud\n",
      "'large_scale' or 'testbed'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\nutility = maybe\n",
      "not a boolean");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\nr_min = tiny\n",
      "'baseline' or a number");
  expect_parse_error("[sweep]\npolicies = clone\n[adaptive]\nmetric = pocd\n",
                     "missing required key 'max_replications'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[adaptive]\nmax_replications = 5\n",
      "target_ci95");
  // Non-finite numbers fail at their own line. Before this check, NaN
  // R_min offsets clamped silently to R_min = 0 (std::max(0.0, NaN) is 0),
  // theta = inf made every utility -inf, and an inf axis value failed only
  // mid-sweep with an unrelated message.
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\nutility = on\n"
      "r_min_offset = nan\n",
      "manifest line 5: 'nan' is not a finite number");
  expect_parse_error("[sweep]\npolicies = clone\n[planner]\ntheta = inf\n",
                     "manifest line 4: 'inf' is not a finite number");
  expect_parse_error(
      "[sweep]\npolicies = clone\n\n[experiment]\nr_min = nan\n",
      "manifest line 5: 'nan' is not a finite number");
  expect_parse_error("[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, inf\n",
                     "manifest line 4: 'inf' is not a finite number");
}

TEST(Manifest, ErrorsCarryLineNumbers) {
  expect_parse_error("[sweep]\npolicies = clone\n\nbroken line\n",
                     "manifest line 4");
}

TEST(Manifest, SeedsParseExactlyAbove2Pow53) {
  // Parsing integers through a double would silently round this to
  // 9007199254740992 and break "same manifest, same numbers".
  const Manifest manifest = parse_manifest(
      "[sweep]\npolicies = clone\nseed = 9007199254740993\n");
  EXPECT_EQ(manifest.spec.seed, 9007199254740993ULL);
  expect_parse_error("[sweep]\npolicies = clone\nseed = -1\n",
                     "not an unsigned integer");
  expect_parse_error("[sweep]\npolicies = clone\nreplications = 2.5\n",
                     "not an integer");
}

TEST(Manifest, RejectsStrayTextAfterClosingQuote) {
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, 2\n"
      "labels = \"a\"junk, b\n",
      "after closing quote");
}

TEST(Manifest, JournalSaltTracksCellTemplatesButNotOutputs) {
  const char* base_text =
      "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
      "[output]\ncsv = a.csv\n";
  const std::string base_salt =
      manifest_journal_salt(parse_manifest(base_text));

  // Same templates, different output path: the journal stays valid.
  Manifest same = parse_manifest(base_text);
  same.outputs.csv = "elsewhere.csv";
  EXPECT_EQ(manifest_journal_salt(same), base_salt);

  // Any cell-template edit must change the salt.
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 12\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[planner]\ntheta = 1e-3\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[experiment]\ncluster = testbed\n")),
            base_salt);
  EXPECT_NE(manifest_journal_salt(parse_manifest(
                "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
                "[experiment]\nutility = on\nr_min = 0.5\n")),
            base_salt);
}

TEST(Manifest, ParsesAndValidatesTheShardSection) {
  const Manifest manifest = parse_manifest(
      "[sweep]\npolicies = clone\n[shard]\ncount = 4\ndir = journals\n");
  EXPECT_EQ(manifest.shard.count, 4);
  EXPECT_EQ(manifest.shard.dir, "journals");

  // Defaults: unsharded, journals in the working directory.
  const Manifest plain = parse_manifest("[sweep]\npolicies = clone\n");
  EXPECT_EQ(plain.shard.count, 0);
  EXPECT_EQ(plain.shard.dir, ".");

  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ndir = x\n",
                     "missing required key 'count'");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = 0\n",
                     "shard count must be >= 1");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = -2\n",
                     "shard count must be >= 1");
  // Beyond int: must be rejected, never narrowed into a plausible count.
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 4294967298\n",
      "shard count must be >= 1");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = two\n",
                     "not an integer");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\ndir =\n",
      "shard dir must not be empty");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\nmachines = 9\n",
      "unknown key 'machines'");
}

TEST(Manifest, ShardSectionNeverChangesTheJournalSalt) {
  // How a grid is split across processes must not invalidate journals:
  // shard journals and the unsharded journal share one fingerprint.
  const std::string unsharded = manifest_journal_salt(
      parse_manifest("[sweep]\npolicies = clone\n[trace]\nseed = 11\n"));
  const std::string sharded = manifest_journal_salt(parse_manifest(
      "[sweep]\npolicies = clone\n[trace]\nseed = 11\n"
      "[shard]\ncount = 8\ndir = journals\n"));
  EXPECT_EQ(unsharded, sharded);
}

TEST(Manifest, EndToEndRunMatchesHandBuiltSweep) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
name = tiny
policies = hadoop-ns, s-resume
replications = 2
seed = 33

[axis.theta]
values = 1e-4, 1e-3

[trace]
num_jobs = 5
duration_hours = 0.2
mean_tasks = 4
max_tasks = 10
seed = 5

[planner]
theta = @theta

[experiment]
utility = on
r_min = baseline
)");
  const SweepHooks hooks = make_hooks(manifest);

  const SweepResult serial =
      run_sweep(manifest.spec, hooks, {.threads = 1});
  const SweepResult parallel =
      run_sweep(manifest.spec, hooks, {.threads = 8});
  EXPECT_EQ(to_csv(serial), to_csv(parallel));

  ASSERT_EQ(serial.cells.size(), 4u);
  for (const CellResult& cell : serial.cells) {
    EXPECT_EQ(cell.aggregate.runs, 2u);
    EXPECT_EQ(cell.aggregate.jobs, 10u);  // 5 jobs x 2 replications
    EXPECT_EQ(cell.aggregate.utility.count, 2u);
  }
  // Hooks own a manifest copy, so theta resolves per cell.
  EXPECT_DOUBLE_EQ(serial.cells[0].point.value("theta"), 1e-4);
  EXPECT_DOUBLE_EQ(serial.cells[1].point.value("theta"), 1e-3);
}

TEST(Manifest, LoadRejectsMissingFile) {
  EXPECT_THROW(load_manifest("/nonexistent/manifest.ini"),
               PreconditionError);
}

}  // namespace
}  // namespace chronos::exp
