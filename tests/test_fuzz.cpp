// Fuzz-style robustness tests for the two text formats a crashed or
// misbehaving cluster node can hand us — journal entry lines and manifest
// files — and for the staged job specs the scheduler accepts. Thousands of
// deterministically mutated inputs (seeded chronos::Rng — every failure
// reproduces) are fed in, asserting nothing crashes or silently mis-parses:
// a mutated journal line either fails to decode or is byte-for-byte a
// canonical line, a mutated manifest either parses or throws
// PreconditionError, and a mutated job spec either throws PreconditionError
// at submit or runs to a finite outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "mapreduce/scheduler.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "strategies/policies.h"

namespace chronos::exp {
namespace {

CellAggregate sample_aggregate(double base) {
  CellAggregate aggregate;
  aggregate.runs = 3;
  aggregate.jobs = 18;
  aggregate.attempts_launched = 70;
  aggregate.attempts_killed = 12;
  aggregate.attempts_failed = 1;
  aggregate.events_executed = 12345;
  aggregate.pocd = {3, 0.75 + base, 0.1, 0.2484, 0.6, 0.9};
  aggregate.cost = {3, 123.456, 7.5, 18.63, 110.0, 130.5};
  aggregate.machine_time = {3, 0.1 + 0.2, 0.0, 0.0, 0.3, 0.3};
  aggregate.mean_r = {3, 2.5, 0.5, 1.242, 2.0, 3.0};
  aggregate.utility = {2, -std::numeric_limits<double>::infinity(), 0.0,
                       0.0, -std::numeric_limits<double>::infinity(), -0.5};
  return aggregate;
}

/// One random structural mutation: byte flips, truncation, insertion,
/// deletion, and field duplication (the shapes torn writes, bad disks and
/// buggy tooling actually produce).
std::string mutate(const std::string& input, Rng& rng) {
  std::string text = input;
  const int kind = static_cast<int>(rng.uniform_int(0, 5));
  switch (kind) {
    case 0: {  // flip one byte to a different value
      if (text.empty()) break;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      char replacement = static_cast<char>(rng.uniform_int(0, 255));
      while (replacement == text[at]) {
        replacement = static_cast<char>(rng.uniform_int(0, 255));
      }
      text[at] = replacement;
      break;
    }
    case 1: {  // truncate (a torn write)
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      text.resize(at);
      break;
    }
    case 2: {  // insert a random byte
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<char>(rng.uniform_int(0, 255)));
      break;
    }
    case 3: {  // delete a random byte
      if (text.empty()) break;
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text.erase(text.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
    case 4: {  // duplicate a space-separated field
      std::vector<std::string> fields;
      std::size_t at = 0;
      while (at <= text.size()) {
        const std::size_t space = text.find(' ', at);
        fields.push_back(text.substr(
            at, space == std::string::npos ? std::string::npos : space - at));
        if (space == std::string::npos) break;
        at = space + 1;
      }
      if (fields.empty()) break;
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(fields.size()) - 1));
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(pick),
                    fields[pick]);
      text.clear();
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f > 0) text += ' ';
        text += fields[f];
      }
      break;
    }
    default: {  // swap two bytes
      if (text.size() < 2) break;
      const auto a = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      std::swap(text[a], text[b]);
      break;
    }
  }
  return text;
}

TEST(JournalFuzz, MutatedEntryLinesAreRejectedOrCanonical) {
  std::vector<std::string> seeds;
  for (int i = 0; i < 4; ++i) {
    seeds.push_back(encode_journal_entry(
        {static_cast<std::size_t>(i * 1000), sample_aggregate(0.01 * i)}));
  }
  Rng rng(20260730);
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const std::string& base = seeds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    // Stack a few mutations so corruption compounds, as real torn/rotten
    // files do.
    std::string line = base;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) {
      line = mutate(line, rng);
    }
    const std::optional<JournalEntry> decoded = decode_journal_entry(line);
    if (decoded.has_value()) {
      // Either the mutations cancelled out or they produced another valid
      // line; in both cases decode must be the exact inverse of encode, so
      // nothing was silently mis-parsed.
      EXPECT_EQ(encode_journal_entry(*decoded), line)
          << "iteration " << iteration << " mis-parsed: " << line;
    }
  }
}

TEST(JournalFuzz, RandomGarbageNeverDecodes) {
  Rng rng(424242);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const auto length =
        static_cast<std::size_t>(rng.uniform_int(0, 200));
    std::string line(length, '\0');
    for (char& c : line) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    // A checksum-protected format cannot be satisfied by random bytes.
    EXPECT_FALSE(decode_journal_entry(line).has_value());
    // Prefixing the magic marker must not help either.
    EXPECT_FALSE(decode_journal_entry("cell " + line).has_value());
  }
}

constexpr const char* kBaseManifest = R"([sweep]
name = fuzz
policies = s-restart, s-resume
replications = 2
seed = 7

[axis.theta]
values = 1e-5, 1e-4, 1e-3

[adaptive]
metric = pocd
target_ci95 = 0.04
batch = 2
max_replications = 12

[trace]
num_jobs = 24
duration_hours = 1
mean_tasks = 8
max_tasks = 40
seed = 11

[planner]
theta = @theta

[experiment]
utility = on
r_min = baseline

[output]
journal = tiny.journal
csv = tiny.csv

[shard]
count = 3
dir = journals
)";

/// A line-level mutation for manifests: duplicate, delete or swap whole
/// lines — the way a broken merge/editor mangles config files.
std::string mutate_lines(const std::string& input, Rng& rng) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at <= input.size()) {
    const std::size_t end = input.find('\n', at);
    lines.push_back(input.substr(
        at, end == std::string::npos ? std::string::npos : end - at));
    if (end == std::string::npos) break;
    at = end + 1;
  }
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(lines.size()) - 1));
  };
  switch (rng.uniform_int(0, 2)) {
    case 0: {  // duplicate a line (duplicate keys/sections must be caught)
      const std::size_t i = pick();
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      break;
    }
    case 1:  // drop a line (missing required keys must be caught)
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick()));
      break;
    default:
      std::swap(lines[pick()], lines[pick()]);
      break;
  }
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

TEST(ManifestFuzz, MutatedManifestsParseOrThrowPreconditionError) {
  Rng rng(31337);
  int parsed = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = kBaseManifest;
    const int rounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rounds; ++r) {
      text = rng.bernoulli(0.5) ? mutate(text, rng)
                                : mutate_lines(text, rng);
    }
    try {
      const Manifest manifest = parse_manifest(text);
      // Whatever survived must be a coherent grid: validate() ran inside
      // parse_manifest, so the spec is usable as-is.
      EXPECT_GE(manifest.spec.num_cells(), 1u);
      ++parsed;
    } catch (const PreconditionError&) {
      ++rejected;  // the only acceptable failure mode
    }
    // Any other exception (or a crash/sanitizer report) fails the test.
  }
  // Sanity: the corpus exercises both outcomes, not just one trivially.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Open-system manifest: the [arrivals] section plus the keys it interacts
// with (numeric r_min, nodes/containers overrides, warm-up window).
constexpr const char* kArrivalsManifest = R"([sweep]
name = fuzz_open
policies = hadoop-ns, s-resume
replications = 2
seed = 19

[axis.lambda]
values = 0.05, 0.2

[trace]
mean_tasks = 4
max_tasks = 16
t_min_lo = 4
t_min_hi = 12

[planner]
theta = 1e-4

[experiment]
utility = on
r_min = 0.1

[arrivals]
kind = poisson
rate = @lambda
duration_hours = 0.25
warm_up_hours = 0.05
drain = on
plan = policy
admission = on
nodes = 4
containers = 4

[output]
journal = open.journal
csv = open.csv
)";

TEST(ManifestFuzz, MutatedArrivalsManifestsParseOrThrowPreconditionError) {
  Rng rng(20260808);
  int parsed = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = kArrivalsManifest;
    const int rounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int r = 0; r < rounds; ++r) {
      text = rng.bernoulli(0.5) ? mutate(text, rng)
                                : mutate_lines(text, rng);
    }
    try {
      const Manifest manifest = parse_manifest(text);
      EXPECT_GE(manifest.spec.num_cells(), 1u);
      // [arrivals] validation is parse-time: a surviving manifest with the
      // section still present must carry a coherent, validated spec.
      if (manifest.arrivals.has_value()) {
        const sim::OpenSystemConfig& open = manifest.arrivals->open;
        EXPECT_GT(open.duration, 0.0);
        EXPECT_GE(open.warm_up, 0.0);
        EXPECT_LT(open.warm_up, open.duration);
      }
      ++parsed;
    } catch (const PreconditionError&) {
      ++rejected;  // the only acceptable failure mode
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ManifestFuzz, TruncatedArrivalsManifestsNeverCrash) {
  const std::string base = kArrivalsManifest;
  for (std::size_t cut = 0; cut <= base.size(); ++cut) {
    try {
      parse_manifest(base.substr(0, cut));
    } catch (const PreconditionError&) {
      // fine: truncation removed something required
    }
  }
}

TEST(ManifestFuzz, TruncatedManifestsNeverCrash) {
  const std::string base = kBaseManifest;
  for (std::size_t cut = 0; cut <= base.size(); ++cut) {
    try {
      parse_manifest(base.substr(0, cut));
    } catch (const PreconditionError&) {
      // fine: truncation removed something required
    }
  }
}

// --- staged JobSpec graphs ---------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Draws a staged job around a valid one, each field malformed with
/// probability `rate`.
struct JobMutator {
  Rng& rng;
  double rate;

  bool bad() { return rng.bernoulli(rate); }

  /// `valid`, or one of the values a malformed spec carries: 0, -1, NaN
  /// or +-inf.
  double value(double valid) {
    if (!bad()) {
      return valid;
    }
    const double values[] = {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(), kInf,
                             -kInf};
    return values[rng.uniform_int(0, 4)];
  }

  /// `valid`, or 0 or -1.
  long long count(long long valid) {
    return bad() ? -rng.uniform_int(0, 1) : valid;
  }

  /// One dependency of stage `s`: an earlier stage, or a negative, self or
  /// forward reference.
  int dep(int s, int stages) {
    if (s > 0 && !bad()) {
      return static_cast<int>(rng.uniform_int(0, s - 1));
    }
    switch (rng.uniform_int(0, 2)) {
      case 0:
        return -1;
      case 1:
        return s;
      default:
        return s + 1 + static_cast<int>(rng.uniform_int(0, stages));
    }
  }

  /// 0 to 6 stages with default-chain or explicit deps
  /// (repeats included).
  mapreduce::JobSpec job() {
    mapreduce::JobSpec spec;
    spec.deadline = value(rng.uniform(40.0, 400.0));
    spec.price = value(rng.uniform(0.5, 2.0));
    const double jvm_mean = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.5, 3.0);
    spec.jvm_mean = value(jvm_mean);
    spec.jvm_jitter = value(0.5 * jvm_mean);
    const int stages = static_cast<int>(rng.uniform_int(0, 6));
    spec.stages.assign(static_cast<std::size_t>(stages), {});
    for (int s = 0; s < stages; ++s) {
      mapreduce::StageSpec& st = spec.stage(s);
      st.num_tasks = static_cast<int>(count(rng.uniform_int(1, 4)));
      const double t_min = rng.uniform(2.0, 20.0);
      st.t_min = value(t_min);
      st.beta = value(rng.uniform(1.1, 3.0));
      st.tau_est = value(0.4 * t_min);
      st.tau_kill = value(0.8 * t_min);
      st.r = count(rng.uniform_int(0, 3));
      if (rng.bernoulli(0.5)) {
        const int deps = static_cast<int>(rng.uniform_int(1, 3));
        for (int d = 0; d < deps; ++d) {
          st.deps.push_back(dep(s, stages));
        }
        if (bad()) {
          st.deps.push_back(st.deps.front());
        }
      }
    }
    return spec;
  }
};

TEST(JobSpecFuzz, MalformedGraphsAreRejectedOrRunToFiniteOutcomes) {
  // Under every policy, a mutated staged job either fails loudly at submit
  // (PreconditionError, nothing else) or drains the simulator with exactly
  // one outcome whose completion and machine times are finite.
  using strategies::PolicyKind;
  const PolicyKind kinds[] = {PolicyKind::kHadoopNS, PolicyKind::kHadoopS,
                              PolicyKind::kMantri,   PolicyKind::kClone,
                              PolicyKind::kSRestart, PolicyKind::kSResume};
  sim::NodeConfig node;
  node.containers = 8;
  const sim::ClusterConfig cluster_config =
      sim::ClusterConfig::uniform(2, node);
  Rng rng(20261017);
  int rejected = 0;
  int ran = 0;
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const double rates[] = {0.0, 0.02, 0.1, 0.3};
    JobMutator mutator{rng, rates[rng.uniform_int(0, 3)]};
    const mapreduce::JobSpec spec = mutator.job();
    const std::uint64_t seed = rng();
    for (const PolicyKind kind : kinds) {
      sim::Simulator simulator;
      sim::Cluster cluster(cluster_config);
      const auto policy = strategies::make_policy(kind);
      mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                     {.retain_outcomes = true}, Rng(seed));
      try {
        scheduler.submit(spec);
      } catch (const PreconditionError&) {
        ++rejected;
        continue;
      }
      ++ran;
      const std::string where = "iteration " + std::to_string(iteration) +
                                ", " + strategies::to_string(kind);
      // A job that never finishes keeps periodic monitors ticking forever;
      // a horizon far past any valid job turns that hang into a failure.
      simulator.run_until(1e7);
      ASSERT_EQ(simulator.pending(), 0u) << where;
      const auto& outcomes = scheduler.metrics().outcomes();
      ASSERT_EQ(outcomes.size(), 1u) << where;
      EXPECT_TRUE(std::isfinite(outcomes[0].completion_time)) << where;
      EXPECT_TRUE(std::isfinite(outcomes[0].machine_time)) << where;
    }
  }
  // Neither branch of the contract may go untested.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(ran, 1000);
}

}  // namespace
}  // namespace chronos::exp
