#include "exp/checkpoint.h"

#include <unistd.h>

#include <charconv>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "common/numeric.h"
#include "exp/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronos::exp {

namespace {

using numeric::append_hex_double;
using numeric::fnv1a;
using numeric::hex64;
using numeric::parse_hex_double;
using numeric::parse_u64;

const obs::Counter c_journal_entries = obs::counter("exp.journal.entries");
const obs::Counter c_journal_bytes = obs::counter("exp.journal.bytes");
const obs::Timer t_journal_flush = obs::timer("exp.journal.flush");

constexpr std::string_view kHeaderPrefix = "chronos-journal v1 fp=";
constexpr std::string_view kEntryPrefix = "cell ";
constexpr std::string_view kChecksumSep = " crc=";

/// Unlinks a scratch file on destruction unless the owner committed it
/// (renamed it into place). Covers every throw path between creation and
/// commit with one object instead of per-error cleanup calls.
class TempFileGuard {
 public:
  explicit TempFileGuard(std::string path) : path_(std::move(path)) {}
  ~TempFileGuard() {
    if (!committed_) {
      std::remove(path_.c_str());
    }
  }
  TempFileGuard(const TempFileGuard&) = delete;
  TempFileGuard& operator=(const TempFileGuard&) = delete;
  void commit() { committed_ = true; }

 private:
  std::string path_;
  bool committed_ = false;
};

void append_summary(std::string& out, const MetricSummary& summary) {
  out += ' ';
  out += std::to_string(summary.count);
  for (const double v : {summary.mean, summary.stddev, summary.ci95,
                         summary.min, summary.max}) {
    out += ' ';
    append_hex_double(out, v);
  }
}

/// Splits `text` on single spaces. Journal lines are machine-written, so a
/// double space is corruption and surfaces as a parse failure downstream.
std::vector<std::string_view> split_fields(std::string_view text) {
  std::vector<std::string_view> fields;
  while (!text.empty()) {
    const std::size_t space = text.find(' ');
    fields.push_back(text.substr(0, space));
    if (space == std::string_view::npos) {
      break;
    }
    text.remove_prefix(space + 1);
  }
  return fields;
}

/// Consumes one MetricSummary (6 fields) starting at fields[at].
bool parse_summary(const std::vector<std::string_view>& fields,
                   std::size_t& at, MetricSummary& summary) {
  if (at + 6 > fields.size()) {
    return false;
  }
  if (!parse_u64(fields[at], summary.count)) {
    return false;
  }
  double* const slots[] = {&summary.mean, &summary.stddev, &summary.ci95,
                           &summary.min, &summary.max};
  for (std::size_t i = 0; i < 5; ++i) {
    if (!parse_hex_double(fields[at + 1 + i], *slots[i])) {
      return false;
    }
  }
  at += 6;
  return true;
}

}  // namespace

std::string spec_fingerprint(const SweepSpec& spec,
                             const std::string& salt) {
  std::string canon = "name=";
  canon += spec.name;
  canon += ";seed=";
  canon += std::to_string(spec.seed);
  canon += ";replications=";
  canon += std::to_string(spec.replications);
  canon += ";policies=";
  for (const auto policy : spec.policies) {
    canon += strategies::to_string(policy);
    canon += ',';
  }
  for (const Axis& axis : spec.axes) {
    canon += ";axis=";
    canon += axis.name;
    canon += ':';
    for (const double value : axis.values) {
      append_hex_double(canon, value);
      canon += ',';
    }
    canon += ':';
    for (const std::string& label : axis.labels) {
      canon += label;
      canon += ',';
    }
  }
  if (spec.adaptive.enabled()) {
    canon += ";adaptive=";
    canon += spec.adaptive.metric;
    canon += ',';
    append_hex_double(canon, spec.adaptive.target_ci95);
    canon += ',';
    canon += std::to_string(spec.adaptive.batch);
    canon += ',';
    canon += std::to_string(spec.adaptive.max_replications);
  }
  if (!salt.empty()) {
    canon += ";salt=";
    canon += salt;
  }
  return hex64(fnv1a(canon));
}

std::string encode_journal_entry(const JournalEntry& entry) {
  std::string line(kEntryPrefix);
  line += std::to_string(entry.cell);
  const CellAggregate& agg = entry.aggregate;
  for (const std::uint64_t v :
       {agg.runs, agg.jobs, agg.attempts_launched, agg.attempts_killed,
        agg.attempts_failed, agg.events_executed}) {
    line += ' ';
    line += std::to_string(v);
  }
  append_summary(line, agg.pocd);
  append_summary(line, agg.cost);
  append_summary(line, agg.machine_time);
  append_summary(line, agg.mean_r);
  append_summary(line, agg.utility);
  line += kChecksumSep;
  line += hex64(fnv1a(std::string_view(line.data(),
                                       line.size() - kChecksumSep.size())));
  return line;
}

std::optional<JournalEntry> decode_journal_entry(const std::string& line) {
  std::string_view text = line;
  if (text.substr(0, kEntryPrefix.size()) != kEntryPrefix) {
    return std::nullopt;
  }
  const std::size_t crc_at = text.rfind(kChecksumSep);
  if (crc_at == std::string_view::npos) {
    return std::nullopt;
  }
  const std::string_view payload = text.substr(0, crc_at);
  const std::string_view checksum =
      text.substr(crc_at + kChecksumSep.size());
  if (checksum != hex64(fnv1a(payload))) {
    return std::nullopt;
  }
  const auto fields = split_fields(payload.substr(kEntryPrefix.size()));
  // cell index + 6 counters + 5 summaries x 6 fields.
  if (fields.size() != 7 + 5 * 6) {
    return std::nullopt;
  }
  JournalEntry entry;
  std::uint64_t cell = 0;
  if (!parse_u64(fields[0], cell)) {
    return std::nullopt;
  }
  entry.cell = static_cast<std::size_t>(cell);
  CellAggregate& agg = entry.aggregate;
  std::uint64_t* const counters[] = {
      &agg.runs,           &agg.jobs,            &agg.attempts_launched,
      &agg.attempts_killed, &agg.attempts_failed, &agg.events_executed};
  for (std::size_t i = 0; i < 6; ++i) {
    if (!parse_u64(fields[1 + i], *counters[i])) {
      return std::nullopt;
    }
  }
  std::size_t at = 7;
  MetricSummary* const summaries[] = {&agg.pocd, &agg.cost,
                                      &agg.machine_time, &agg.mean_r,
                                      &agg.utility};
  for (MetricSummary* summary : summaries) {
    if (!parse_summary(fields, at, *summary)) {
      return std::nullopt;
    }
  }
  return entry;
}

JournalContents read_journal(const std::string& path,
                             const std::string& fingerprint) {
  JournalContents contents;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return contents;
  }
  contents.found = true;
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);

  std::size_t at = 0;
  bool first = true;
  while (at < text.size()) {
    const std::size_t end = text.find('\n', at);
    if (end == std::string::npos) {
      break;  // torn tail: the line a crash interrupted
    }
    const std::string line = text.substr(at, end - at);
    at = end + 1;
    if (first) {
      first = false;
      if (line != std::string(kHeaderPrefix) + fingerprint) {
        return contents;  // another spec's journal; nothing is reusable
      }
      contents.compatible = true;
      contents.valid_bytes = at;
      continue;
    }
    const auto entry = decode_journal_entry(line);
    if (!entry.has_value()) {
      break;  // corrupt line; trust nothing after it
    }
    contents.cells.insert_or_assign(entry->cell, entry->aggregate);
    contents.valid_bytes = at;
  }
  return contents;
}

std::string shard_journal_path(const std::string& dir,
                               const std::string& name, std::size_t index,
                               std::size_t count) {
  CHRONOS_EXPECTS(count >= 1, "shard count must be >= 1");
  CHRONOS_EXPECTS(index < count,
                  "shard index " + std::to_string(index) +
                      " out of range for " + std::to_string(count) +
                      " shard(s)");
  std::string path = dir.empty() ? std::string(".") : dir;
  if (path.back() != '/') {
    path += '/';
  }
  path += name;
  path += ".shard-";
  path += std::to_string(index + 1);
  path += "-of-";
  path += std::to_string(count);
  path += ".journal";
  return path;
}

bool FinishedCells::add(const JournalEntry& entry,
                        const std::string& source) {
  CHRONOS_EXPECTS(entry.cell < num_cells_,
                  "cell " + std::to_string(entry.cell) + " from " + source +
                      " is beyond the " + std::to_string(num_cells_) +
                      "-cell grid");
  std::string line = encode_journal_entry(entry);
  const auto it = first_.find(entry.cell);
  if (it == first_.end()) {
    first_.emplace(entry.cell, First{source, std::move(line)});
    cells_.emplace(entry.cell, entry.aggregate);
    return true;
  }
  CHRONOS_EXPECTS(it->second.line == line,
                  "conflicting result for cell " +
                      std::to_string(entry.cell) + ": " + it->second.source +
                      " and " + source +
                      " hold different aggregates; they did not run the "
                      "same sweep");
  ++duplicates_;
  return false;
}

FinishedCells merge_journals(const std::vector<std::string>& paths,
                             const std::string& fingerprint,
                             std::size_t num_cells) {
  CHRONOS_EXPECTS(!paths.empty(), "merge needs at least one journal");
  FinishedCells merged(num_cells);
  for (const std::string& path : paths) {
    const JournalContents contents = read_journal(path, fingerprint);
    CHRONOS_EXPECTS(contents.found,
                    "shard journal '" + path + "' is missing or unreadable");
    CHRONOS_EXPECTS(contents.compatible,
                    "shard journal '" + path +
                        "' belongs to a different sweep (fingerprint "
                        "mismatch); refusing to merge");
    for (const auto& [cell, aggregate] : contents.cells) {
      merged.add({cell, aggregate}, "shard journal '" + path + "'");
    }
  }
  if (merged.size() != num_cells) {
    std::string missing;
    std::size_t listed = 0;
    for (std::size_t c = 0; c < num_cells && listed < 8; ++c) {
      if (merged.cells().find(c) == merged.cells().end()) {
        missing += missing.empty() ? "" : ", ";
        missing += std::to_string(c);
        ++listed;
      }
    }
    CHRONOS_EXPECTS(false,
                    "merged journals cover " +
                        std::to_string(merged.size()) + " of " +
                        std::to_string(num_cells) +
                        " cells; missing cell(s): " + missing +
                        (merged.size() + listed < num_cells ? ", ..." : ""));
  }
  return merged;
}

CompactStats compact_journal(const std::string& path,
                             const std::string& fingerprint) {
  const JournalContents contents = read_journal(path, fingerprint);
  CHRONOS_EXPECTS(contents.found,
                  "journal '" + path + "' is missing or unreadable");
  CHRONOS_EXPECTS(contents.compatible,
                  "journal '" + path +
                      "' belongs to a different sweep (fingerprint "
                      "mismatch); refusing to compact");
  CompactStats stats;
  stats.entries = contents.cells.size();
  std::error_code size_error;
  stats.bytes_before = static_cast<std::size_t>(
      std::filesystem::file_size(path, size_error));

  std::string compacted(kHeaderPrefix);
  compacted += fingerprint;
  compacted += '\n';
  for (const auto& [cell, aggregate] : contents.cells) {
    compacted += encode_journal_entry({cell, aggregate});
    compacted += '\n';
  }
  stats.bytes_after = compacted.size();

  // Write-then-rename: readers (and a crash) only ever see either the old
  // journal or the complete compacted one, never a half-written file. The
  // guard unlinks the temp file on *every* error path (short write, failed
  // flush, rename failure — e.g. the journal living on another device than
  // the temp would after a future layout change), so a failed compaction
  // can never strand a stale .compact.tmp next to the journal.
  const std::string temp = path + ".compact.tmp";
  TempFileGuard guard(temp);
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  CHRONOS_EXPECTS(file != nullptr,
                  "cannot open '" + temp + "' for writing");
  const std::size_t written =
      std::fwrite(compacted.data(), 1, compacted.size(), file);
  const bool flushed = std::fflush(file) == 0;
  std::fclose(file);
  CHRONOS_EXPECTS(written == compacted.size() && flushed,
                  "short write to '" + temp + "'");
  std::error_code rename_error;
  std::filesystem::rename(temp, path, rename_error);
  CHRONOS_EXPECTS(!rename_error, "cannot rename '" + temp + "' over '" +
                                     path + "': " + rename_error.message());
  guard.commit();
  return stats;
}

JournalWriter::JournalWriter(const std::string& path,
                             const std::string& fingerprint,
                             std::size_t resume_at)
    : path_(path) {
  const bool resume = resume_at > 0;
  if (resume) {
    // Drop any torn tail before appending, or the next entry would fuse
    // with it into one corrupt line.
    std::error_code ignored;
    std::filesystem::resize_file(path, resume_at, ignored);
  }
  file_ = std::fopen(path.c_str(), resume ? "ab" : "wb");
  CHRONOS_EXPECTS(file_ != nullptr,
                  "cannot open journal '" + path + "' for writing");
  if (!resume) {
    const std::string header =
        std::string(kHeaderPrefix) + fingerprint + "\n";
    const std::size_t written =
        std::fwrite(header.data(), 1, header.size(), file_);
    CHRONOS_EXPECTS(written == header.size() && std::fflush(file_) == 0,
                    "short write to journal '" + path + "'");
  }
}

ResumedJournal resume_journal(const std::string& path,
                              const std::string& fingerprint,
                              std::size_t num_cells) {
  JournalContents contents = read_journal(path, fingerprint);
  if (contents.found && !contents.compatible) {
    CHRONOS_LOG(kWarn) << "journal '" << path
                       << "' belongs to a different sweep; starting fresh";
  }
  ResumedJournal resumed;
  for (auto& [cell, aggregate] : contents.cells) {
    if (cell < num_cells) {
      resumed.cells.emplace(cell, std::move(aggregate));
    }
  }
  // valid_bytes is 0 unless the header matched: a foreign or missing
  // journal starts a fresh file.
  resumed.writer =
      std::make_unique<JournalWriter>(path, fingerprint, contents.valid_bytes);
  return resumed;
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

void JournalWriter::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  CHRONOS_EXPECTS(std::fflush(file_) == 0,
                  "cannot flush journal '" + path_ + "'");
  // Durability past the page cache: a signal-triggered drain (or a fabric
  // controller about to exit) must leave the entries on disk, not in RAM.
  ::fsync(::fileno(file_));
}

void JournalWriter::append(const JournalEntry& entry) {
  const std::string line = encode_journal_entry(entry) + "\n";
  obs::TraceSpan span("journal.append", "exp");
  span.note("cell", static_cast<double>(entry.cell));
  span.note("bytes", static_cast<double>(line.size()));
  const obs::ScopedTimer flush_timer(t_journal_flush);
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t written =
      std::fwrite(line.data(), 1, line.size(), file_);
  CHRONOS_EXPECTS(written == line.size() && std::fflush(file_) == 0,
                  "short write to journal '" + path_ + "'");
  c_journal_entries.add();
  c_journal_bytes.add(line.size());
}

}  // namespace chronos::exp
