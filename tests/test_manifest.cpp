// Sweep manifests: INI-subset parsing (sections, lists, comments,
// line-numbered errors), journal-fingerprint pins of the committed
// manifests, semantic validation (axis bindings, policies,
// adaptive config), and an end-to-end run of manifest-built hooks through
// the engine.
#include "exp/manifest.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "exp/checkpoint.h"
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
  EXPECT_TRUE(manifest.report_utility);
  EXPECT_EQ(manifest.r_min_mode, RMinMode::kBaseline);

  EXPECT_EQ(manifest.outputs.csv, "out.csv");
  EXPECT_EQ(manifest.outputs.journal, "out.journal");
}

TEST(Manifest, ParsesAdaptive) {
  const Manifest manifest = parse_manifest(R"(
[sweep]
policies = s-resume
replications = 2

[axis.workload]
values = 0, 1,

[adaptive]
metric = cost
target_ci95 = 0.5
batch = 3
max_replications = 12
)");
  ASSERT_EQ(manifest.spec.axes.size(), 1u);
  // One trailing comma is allowed.
  EXPECT_EQ(manifest.spec.axes[0].values, (std::vector<double>{0.0, 1.0}));
  EXPECT_TRUE(manifest.spec.axes[0].labels.empty());
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
  expect_parse_error("[sweep]\npolicies = clone\n[axis.x]\nvalues = 1,,2\n",
                     "manifest line 4: empty list item");
  expect_parse_error("[sweep]\npolicies = clone\n[axis.x]\nvalues = ,\n",
                     "manifest line 4: empty list item");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[planner]\ntheta = @missing\n",
      "binds to an axis that does not exist");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\ncluster = cloud\n",
      "manifest line 4: cluster must be 'large_scale', got 'cloud'");
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
  // Integers beyond int fail at their line. Narrowed unchecked, each of
  // these wrapped into a plausible value (4294967297 -> 1 replication).
  expect_parse_error("[sweep]\npolicies = clone\nreplications = 4294967297\n",
                     "manifest line 3: [sweep] replications must lie in "
                     "[1, 2147483647], got '4294967297'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[trace]\nnum_jobs = 4294967298\n",
      "manifest line 4: [trace] num_jobs must lie in");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[trace]\nmax_tasks = 4294967896\n",
      "manifest line 4: [trace] max_tasks must lie in");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[adaptive]\ntarget_ci95 = 0.1\n"
      "batch = 4294967298\nmax_replications = 12\n",
      "manifest line 5: [adaptive] batch must lie in");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[adaptive]\ntarget_ci95 = 0.1\n"
      "max_replications = 4294967308\n",
      "manifest line 5: [adaptive] max_replications must lie in");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.1\n"
      "containers = 4294967304\n",
      "manifest line 5: [arrivals] containers must lie in [1, 127]");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.1\n"
      "containers = 128\n",
      "manifest line 5: [arrivals] containers must lie in [1, 127]");
  expect_parse_error(
      "[sweep]\npolicies = clone\nreplications = 99999999999999999999\n",
      "[sweep] replications must lie in");
}

TEST(Manifest, RejectsRemovedArrivalsKnobs) {
  // Keys of the deleted diurnal process, node speed classes and admission
  // factors fail as unknown keys at their own line; `diurnal` is no kind.
  const std::string open =
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.1\nnodes = 4\n";
  for (const std::string key :
       {"amplitude", "period_hours", "slow_fraction", "slow_speed",
        "degrade_headroom", "reject_queue_factor"}) {
    expect_parse_error(open + key + " = 0.5\n",
                       "manifest line 6: unknown key '" + key +
                           "' in [arrivals]");
  }
  expect_parse_error(
      "[sweep]\npolicies = clone\n[arrivals]\nkind = diurnal\nrate = 0.1\n",
      "manifest line 4: arrivals kind must be poisson, got 'diurnal'");
  // plan_cache takes off or quantized:<grid>; the deleted bit-exact memo's
  // `exact` is no value.
  for (const std::string value : {"exact", "on", "quantized"}) {
    expect_parse_error(open + "plan_cache = " + value + "\n",
                       "manifest line 6: plan_cache must be off or "
                       "quantized:<grid>, got '" + value + "'");
  }
}

TEST(Manifest, RejectsKeysAndValuesNoWorkloadSets) {
  // Trace-file arrival replay, the testbed cluster preset, the [output]
  // table switch and eight [trace] template keys are not manifest knobs:
  // no workload set them. Each fails at its own line.
  expect_parse_error(
      "[sweep]\npolicies = clone\n[arrivals]\nkind = trace\n"
      "file = arrivals.txt\n",
      "manifest line 4: arrivals kind must be poisson, got 'trace'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.1\n"
      "file = arrivals.txt\n",
      "manifest line 5: unknown key 'file' in [arrivals]");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[experiment]\ncluster = testbed\n",
      "manifest line 4: cluster must be 'large_scale', got 'testbed'");
  expect_parse_error("[sweep]\npolicies = clone\n[output]\ntable = off\n",
                     "manifest line 4: unknown key 'table' in [output]");
  for (const std::string key :
       {"tasks_log_sigma", "min_tasks", "beta_lo", "beta_hi",
        "deadline_factor_lo", "deadline_factor_hi", "jvm_mean",
        "jvm_jitter"}) {
    expect_parse_error(
        "[sweep]\npolicies = clone\n[trace]\nnum_jobs = 10\n" + key +
            " = 2\n",
        "manifest line 5: unknown key '" + key + "' in [trace]");
  }
  // The one value each of `kind` and `cluster` still takes parses.
  const Manifest open = parse_manifest(
      "[sweep]\npolicies = clone\n[experiment]\ncluster = large_scale\n"
      "r_min = 0.1\n[arrivals]\nkind = poisson\nrate = 0.1\n");
  ASSERT_TRUE(open.arrivals.has_value());
  EXPECT_EQ(open.arrivals->rate.fixed, 0.1);
}

TEST(Manifest, RejectsAQuantizationGridBelowTheBucketBound) {
  // Regression: quantized:1e-20 parsed, and its bucket indices overflowed
  // the int64 cast, so unrelated arrivals shared one cached plan. The bound
  // is the one PlanCacheConfig::validate enforces.
  const std::string open = "[sweep]\npolicies = clone\n[arrivals]\n"
                           "rate = 0.1\nplan_cache = quantized:";
  expect_parse_error(open + "1e-20\n",
                     "manifest line 5: plan_cache quantization grid must be "
                     "a number >= 1e-12, got '1e-20'");
  expect_parse_error(open + "0\n", "got '0'");
  const Manifest smallest = parse_manifest(open + "1e-12\n");
  ASSERT_TRUE(smallest.arrivals.has_value());
  const serve::PlanCacheConfig& cache = smallest.arrivals->open.plan_cache;
  EXPECT_EQ(cache.grid, serve::kMinQuantizeGrid);
  EXPECT_NO_THROW(cache.validate());
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

TEST(Manifest, RejectsModesAndGrammarNoWorkloadSets) {
  // Every open-system run drains and applies admission control, axis
  // labels are set only in code, and list items are never quoted. Each
  // fails at its own line.
  const std::string open =
      "[sweep]\npolicies = clone\n[arrivals]\nrate = 0.1\n";
  expect_parse_error(open + "drain = off\n",
                     "manifest line 5: arrivals drain must be on, got 'off'");
  expect_parse_error(
      open + "admission = off\n",
      "manifest line 5: arrivals admission must be on, got 'off'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1, 2\nlabels = a, b\n",
      "manifest line 5: unknown key 'labels' in [axis.x]");
  // A quote is an ordinary character: the item keeps it and fails its
  // key's own parse, and a '#' inside quotes still starts a comment.
  expect_parse_error("[sweep]\npolicies = \"clone\", mantri\n",
                     "manifest line 2: unknown policy '\"clone\"'");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = \"1\", 2\n",
      "manifest line 4: axis value '\"1\"' is not a number");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[axis.x]\nvalues = 1\n"
      "[stage.1]\ntasks = 2\nt_min = 3\nbeta = 1.5\ndeps = \"0\"\n",
      "manifest line 9: stage dep '\"0\"' is not an integer");
  expect_parse_error("[sweep]\npolicies = \"clone # x\"\n",
                     "manifest line 2: unknown policy '\"clone'");
  // `on` still parses, and so does an absent key.
  EXPECT_TRUE(parse_manifest(open + "drain = on\nadmission = on\n")
                  .arrivals.has_value());
  EXPECT_TRUE(parse_manifest(open).arrivals.has_value());
}

TEST(Manifest, CommittedManifestFingerprintsArePinned) {
  // spec_fingerprint(spec, journal_salt) of every committed manifest. A
  // row that moves invalidates every journal written for that manifest,
  // so a change to the parser or its salt must keep these.
  const std::map<std::string, std::string> pinned = {
      {"dag_pipeline.ini", "743c2f22fbde76d"},
      {"fig3_theta.ini", "9f269dfd5f02c4e9"},
      {"fig4_beta.ini", "7e4fb99bbba6f983"},
      {"open_system.ini", "fbe4724d23307794"},
      {"sweep_scaling.ini", "585715d94c1bf01a"},
      {"table1_tau_est.ini", "c8ff2db873667853"},
      {"table2_tau_kill.ini", "4d17e8618c67b688"},
      {"tiny.ini", "34fd7905d942131f"}};
  std::map<std::string, std::string> actual;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHRONOS_MANIFEST_DIR)) {
    if (entry.path().extension() == ".ini") {
      const Manifest manifest = load_manifest(entry.path().string());
      actual[entry.path().filename().string()] =
          spec_fingerprint(manifest.spec, manifest.journal_salt);
    }
  }
  // A new manifest needs its own row here.
  EXPECT_EQ(actual, pinned);
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
                     "[shard] count must lie in [1, 2147483647]");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = -2\n",
                     "[shard] count must lie in [1, 2147483647]");
  // Beyond int: must be rejected, never narrowed into a plausible count.
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 4294967298\n",
      "manifest line 4: [shard] count must lie in [1, 2147483647], got "
      "'4294967298'");
  expect_parse_error("[sweep]\npolicies = clone\n[shard]\ncount = two\n",
                     "not an integer");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\ndir =\n",
      "shard dir must not be empty");
  expect_parse_error(
      "[sweep]\npolicies = clone\n[shard]\ncount = 2\nmachines = 9\n",
      "unknown key 'machines'");
}

// Two manifests that together set every cell-template key that takes more
// than one value: a closed DAG sweep ([trace], [stage.N], [planner],
// [experiment]) and an open one ([arrivals]). Both also set [output] and
// [shard]. `kind = poisson` and `cluster = large_scale`, each its key's only
// value, are checked by ExplicitDefaultsMatchAbsentKeys instead.
constexpr const char* kClosedSalt = R"([sweep]
name = salt
policies = clone, s-resume
replications = 2
seed = 3

[axis.theta]
values = 1e-5, 1e-4

[trace]
num_jobs = 20
duration_hours = 2
mean_tasks = 10
max_tasks = 50
t_min_lo = 5
t_min_hi = 20
seed = 9
beta = 1.6
deadline_factor = 2

[stage.1]
tasks = 4
t_min = 10
beta = 1.5

[stage.2]
tasks = 2
t_min = 7
beta = 1.7
deps = 0, 1

[planner]
theta = @theta
tau_est_factor = 0.25
tau_kill_factor = 1.2

[experiment]
utility = on
r_min = 0.5
r_min_offset = 0.01

[output]
csv = salt.csv
json = salt.json
journal = salt.journal

[shard]
count = 2
dir = shards
)";

constexpr const char* kOpenSalt = R"([sweep]
name = salt_open
policies = hadoop-ns, s-resume
seed = 5

[axis.nodes]
values = 4, 8

[trace]
mean_tasks = 4
max_tasks = 16

[planner]
theta = 1e-3

[experiment]
utility = on
r_min = 0.1

[arrivals]
rate = 0.05
duration_hours = 0.5
warm_up_hours = 0.1
plan = auto
plan_cache = quantized:0.05
nodes = @nodes
containers = 4

[output]
csv = open.csv
journal = open.journal

[shard]
count = 3
dir = .
)";

/// One edit of a manifest: `from` (one or more whole lines) becomes `to`.
struct Edit {
  std::string from;
  std::string to;
};

/// Replaces the one occurrence of `edit.from` as whole lines.
std::string apply(const std::string& text, const Edit& edit) {
  const std::string needle = "\n" + edit.from + "\n";
  const std::size_t at = text.find(needle);
  EXPECT_NE(at, std::string::npos) << edit.from;
  EXPECT_EQ(text.find(needle, at + 1), std::string::npos) << edit.from;
  std::string out = text;
  out.replace(at + 1, edit.from.size(), edit.to);
  return out;
}

std::string salt_of(const std::string& text) {
  return parse_manifest(text).journal_salt;
}

/// The "key = value" lines of every cell-template section of `text`.
std::vector<std::string> template_lines(const std::string& text) {
  std::vector<std::string> lines;
  bool in_template = false;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = text.find('\n', at);
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    if (!line.empty() && line.front() == '[') {
      in_template = line != "[sweep]" && line.rfind("[axis.", 0) != 0 &&
                    line != "[output]" && line != "[shard]";
    } else if (in_template && line.find('=') != std::string::npos) {
      lines.push_back(line);
    }
  }
  return lines;
}

class ManifestSalt : public ::testing::Test {
 protected:
  /// Checks that every edit changes the salt and that the edits together
  /// touch every cell-template line of `text`.
  static void expect_every_edit_changes_salt(const std::string& text,
                                             const std::vector<Edit>& edits) {
    const std::string base = salt_of(text);
    std::string covered;
    for (const Edit& edit : edits) {
      EXPECT_NE(salt_of(apply(text, edit)), base) << edit.from;
      covered += "\n" + edit.from + "\n";
    }
    for (const std::string& line : template_lines(text)) {
      EXPECT_NE(covered.find("\n" + line + "\n"), std::string::npos)
          << "no edit covers '" << line << "'";
    }
  }

  std::string open_ = kOpenSalt;
};

TEST_F(ManifestSalt, EveryClosedTemplateKeyChangesTheSalt) {
  expect_every_edit_changes_salt(
      kClosedSalt,
      {{"num_jobs = 20", "num_jobs = 21"},
       {"duration_hours = 2", "duration_hours = 3"},
       {"mean_tasks = 10", "mean_tasks = 11"},
       {"max_tasks = 50", "max_tasks = 51"},
       {"t_min_lo = 5", "t_min_lo = 6"},
       {"t_min_hi = 20", "t_min_hi = 21"},
       {"seed = 9", "seed = 10"},
       {"beta = 1.6", "beta = @theta"},
       {"deadline_factor = 2", "deadline_factor = 2.5"},
       {"tasks = 4", "tasks = 5"},
       {"t_min = 10", "t_min = 11"},
       {"beta = 1.5", "beta = 1.55"},
       {"tasks = 2", "tasks = @theta"},
       {"t_min = 7", "t_min = 8"},
       {"beta = 1.7", "beta = 1.75"},
       {"deps = 0, 1", "deps = 1"},
       {"theta = @theta", "theta = 1e-5"},
       {"tau_est_factor = 0.25", "tau_est_factor = 0.2"},
       {"tau_kill_factor = 1.2", "tau_kill_factor = 1.1"},
       {"utility = on", "utility = off"},
       {"r_min = 0.5", "r_min = baseline"},
       {"r_min_offset = 0.01", "r_min_offset = 0.02"}});
}

TEST_F(ManifestSalt, EveryOpenTemplateKeyChangesTheSalt) {
  expect_every_edit_changes_salt(
      open_,
      {{"mean_tasks = 4", "mean_tasks = 5"},
       {"max_tasks = 16", "max_tasks = 17"},
       {"theta = 1e-3", "theta = 1e-4"},
       {"utility = on", "utility = off"},
       {"r_min = 0.1", "r_min = 0.2"},
       {"rate = 0.05", "rate = 0.06"},
       {"duration_hours = 0.5", "duration_hours = 0.6"},
       {"warm_up_hours = 0.1", "warm_up_hours = 0.2"},
       {"plan = auto", "plan = policy"},
       {"plan_cache = quantized:0.05", "plan_cache = quantized:0.1"},
       {"nodes = @nodes", "nodes = 6"},
       {"containers = 4", "containers = 5"}});
  // A bound rate, and the plan cache switched off, which salts like an
  // absent key.
  EXPECT_NE(salt_of(apply(open_, {"rate = 0.05", "rate = @nodes"})),
            salt_of(open_));
  const std::string off =
      apply(open_, {"plan_cache = quantized:0.05", "plan_cache = off"});
  EXPECT_NE(salt_of(off), salt_of(open_));
  EXPECT_EQ(salt_of(apply(off, {"plan_cache = off", ""})), salt_of(off));
}

/// Reverses the key order inside every section.
std::string reverse_keys(const std::string& text) {
  std::string out;
  std::vector<std::string> keys;
  const auto flush = [&] {
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      out += *it + "\n";
    }
    keys.clear();
  };
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = text.find('\n', at);
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    if (line.find('=') != std::string::npos) {
      keys.push_back(line);
    } else {
      flush();
      out += line + "\n";
    }
  }
  flush();
  return out;
}

/// Comments after every header, inline comments and padding on every key.
std::string decorate(const std::string& text) {
  std::string out = "# leading comment\n\n";
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t end = text.find('\n', at);
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      out += line + "\n";
      if (!line.empty()) {
        out += "; a comment\n   \n";
      }
    } else {
      out += "  " + line.substr(0, eq) + " =\t" + line.substr(eq + 1) +
             "   # note\n";
    }
  }
  return out;
}

TEST_F(ManifestSalt, IgnoresOutputsShardsKeyOrderAndComments) {
  for (const std::string& text : {std::string(kClosedSalt), open_}) {
    const std::string salt = salt_of(text);
    EXPECT_EQ(salt_of(reverse_keys(text)), salt);
    EXPECT_EQ(salt_of(decorate(text)), salt);
    EXPECT_EQ(salt_of(decorate(reverse_keys(text))), salt);
  }
  const std::string closed = kClosedSalt;
  const std::string salt = salt_of(closed);
  for (const Edit& edit : std::vector<Edit>{
           {"csv = salt.csv", "csv = other.csv"},
           {"json = salt.json", "json = other.json"},
           {"journal = salt.journal", "journal = other.journal"},
           {"count = 2", "count = 5"},
           {"dir = shards", "dir = elsewhere"},
           {"[shard]\ncount = 2\ndir = shards", ""}}) {
    EXPECT_EQ(salt_of(apply(closed, edit)), salt) << edit.from;
  }
}

TEST_F(ManifestSalt, ExplicitDefaultsMatchAbsentKeys) {
  const std::string bare = "[sweep]\npolicies = clone\n";
  EXPECT_EQ(salt_of(bare + "[planner]\ntheta = 1e-4\ntau_est_factor = 0.3\n"
                           "tau_kill_factor = 0.8\n"
                           "[experiment]\ncluster = large_scale\n"
                           "utility = off\nr_min = baseline\n"
                           "r_min_offset = 0\n"
                           "[trace]\nnum_jobs = 2700\nseed = 42\n"),
            salt_of(bare));
  const std::string open = bare + "[experiment]\nr_min = 0.2\n"
                                  "[arrivals]\nrate = 0.1\n";
  EXPECT_EQ(salt_of(open + "kind = poisson\nduration_hours = 1\n"
                           "warm_up_hours = 0\ndrain = on\nplan = policy\n"
                           "plan_cache = off\nadmission = on\n"),
            salt_of(open));
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
