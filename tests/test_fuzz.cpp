// Fuzz-style robustness tests for the two text formats a crashed or
// misbehaving cluster node can hand us: journal entry lines and manifest
// files. Thousands of deterministically mutated inputs (seeded chronos::Rng
// — every failure reproduces) are fed to the parsers, asserting they never
// crash and never silently mis-parse: a mutated journal line either fails
// to decode or is byte-for-byte a canonical line, and a mutated manifest
// either parses or throws PreconditionError — nothing else.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "fabric/protocol.h"

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
labels = "lo, w", mid, hi

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
// with (numeric r_min, nodes/containers overrides, warm-up window). Poisson
// kind keeps the corpus free of file I/O.
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
degrade_headroom = 1.0
reject_queue_factor = 4.0
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

// --- fabric wire protocol ---------------------------------------------------

/// One canonical frame of every type, exercising every field syntax the
/// wire knows (tokens, u64 fields, cell lists, embedded journal entries).
std::vector<std::string> fabric_seed_frames() {
  using fabric::Frame;
  using fabric::FrameType;
  std::vector<Frame> frames;
  Frame hello;
  hello.type = FrameType::kHello;
  hello.value = fabric::kProtocolVersion;
  hello.fingerprint = "cafe0123beef4567";
  hello.name = "fuzz-worker";
  frames.push_back(hello);
  Frame welcome;
  welcome.type = FrameType::kWelcome;
  welcome.worker = 12;
  welcome.value = 500;
  frames.push_back(welcome);
  Frame reject;
  reject.type = FrameType::kReject;
  reject.reason = "fingerprint-mismatch";
  frames.push_back(reject);
  Frame request;
  request.type = FrameType::kRequest;
  request.worker = 12;
  request.value = 4;
  frames.push_back(request);
  Frame lease;
  lease.type = FrameType::kLease;
  lease.lease = 7;
  lease.cells = {0, 3, 4, 1000};
  frames.push_back(lease);
  Frame wait;
  wait.type = FrameType::kWait;
  wait.value = 200;
  frames.push_back(wait);
  Frame done;
  done.type = FrameType::kDone;
  frames.push_back(done);
  Frame result;
  result.type = FrameType::kResult;
  result.worker = 12;
  result.lease = 7;
  result.entry = encode_journal_entry({42, sample_aggregate(0.125)});
  frames.push_back(result);
  Frame heartbeat;
  heartbeat.type = FrameType::kHeartbeat;
  heartbeat.worker = 12;
  heartbeat.value = 3;
  frames.push_back(heartbeat);
  Frame bye;
  bye.type = FrameType::kBye;
  bye.worker = 12;
  frames.push_back(bye);

  std::vector<std::string> lines;
  lines.reserve(frames.size());
  for (const Frame& frame : frames) {
    lines.push_back(fabric::encode_frame(frame));
  }
  return lines;
}

TEST(FabricFrameFuzz, MutatedFramesAreRejectedOrCanonical) {
  // Same property the journal format guarantees, now for the wire: a
  // mutated frame either fails to decode or decodes to a frame whose
  // canonical encoding is byte-for-byte the input. Nothing half-parses —
  // which is what lets the controller treat any decodable line as intact.
  const std::vector<std::string> seeds = fabric_seed_frames();
  Rng rng(20260808);
  for (int iteration = 0; iteration < 4000; ++iteration) {
    const std::string& base = seeds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    std::string line = base;
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) {
      line = mutate(line, rng);
    }
    const std::optional<fabric::Frame> decoded = fabric::decode_frame(line);
    if (decoded.has_value()) {
      EXPECT_EQ(fabric::encode_frame(*decoded), line)
          << "iteration " << iteration << " mis-parsed: " << line;
    }
  }
}

TEST(FabricFrameFuzz, RandomGarbageNeverDecodes) {
  Rng rng(808808);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 200));
    std::string line(length, '\0');
    for (char& c : line) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    EXPECT_FALSE(fabric::decode_frame(line).has_value());
    // A plausible-looking prefix must not help: the checksum still rules.
    EXPECT_FALSE(fabric::decode_frame("request worker=" + line).has_value());
  }
}

TEST(FabricFrameFuzz, CrossFrameSplicesNeverDecode) {
  // Splice the front of one canonical frame onto the back of another — the
  // shape a buggy buffer reuse or interleaved write would produce. The
  // payload checksum must reject every such chimera (identical halves
  // reassemble into the original, which is fine).
  const std::vector<std::string> seeds = fabric_seed_frames();
  for (std::size_t a = 0; a < seeds.size(); ++a) {
    for (std::size_t b = 0; b < seeds.size(); ++b) {
      if (a == b) {
        continue;
      }
      const std::string spliced =
          seeds[a].substr(0, seeds[a].size() / 2) +
          seeds[b].substr(seeds[b].size() / 2);
      const std::optional<fabric::Frame> decoded =
          fabric::decode_frame(spliced);
      if (decoded.has_value()) {
        EXPECT_EQ(fabric::encode_frame(*decoded), spliced);
      }
    }
  }
}

}  // namespace
}  // namespace chronos::exp
