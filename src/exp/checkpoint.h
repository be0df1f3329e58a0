// Checkpoint/restart journal for experiment sweeps.
//
// A journal is an append-only text file: a header line binding the file to
// one exact sweep spec (via a fingerprint), then one line per finished cell
// carrying the cell index and its full CellAggregate. Doubles are encoded
// in hexadecimal float form (std::to_chars, chars_format::hex), so restored
// aggregates are bit-exact and any report rendered from them is
// byte-identical to an uninterrupted run. Every entry line ends in an
// FNV-1a checksum; a torn tail (the line a crash interrupted) fails its
// checksum and is ignored, losing only that cell's partial work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/aggregate.h"

namespace chronos::exp {

struct SweepSpec;

/// Stable hex fingerprint of everything that determines a sweep's numbers:
/// name, master seed, policies, axes (values and labels), base replication
/// count, and the adaptive-replication config. `salt` folds in caller state
/// the spec cannot see but the cell hooks depend on — e.g. a manifest's
/// trace/planner/experiment templates (SweepOptions::journal_salt). A
/// journal written under one fingerprint must never seed a run with a
/// different one.
std::string spec_fingerprint(const SweepSpec& spec,
                             const std::string& salt = {});

/// One finished cell as stored in the journal.
struct JournalEntry {
  std::size_t cell = 0;
  CellAggregate aggregate;
};

/// Serializes one entry as a single journal line (no trailing newline).
std::string encode_journal_entry(const JournalEntry& entry);

/// Parses one journal line; nullopt when the line is malformed, truncated,
/// or fails its checksum.
std::optional<JournalEntry> decode_journal_entry(const std::string& line);

struct JournalContents {
  bool found = false;       ///< the file existed and was readable
  bool compatible = false;  ///< its header matched the given fingerprint
  std::map<std::size_t, CellAggregate> cells;  ///< valid entries, by index
  /// Byte length of the valid prefix (header + intact entries). A resuming
  /// writer truncates the file here first, so a torn tail can never fuse
  /// with the next appended entry.
  std::size_t valid_bytes = 0;
};

/// Reads a journal and validates its header against `fingerprint`. Entries
/// are read up to the first invalid line (a crash's torn tail); everything
/// before it is returned. A missing file yields {found = false}.
JournalContents read_journal(const std::string& path,
                             const std::string& fingerprint);

/// Canonical path of one shard's journal inside a shared journal directory:
/// `<dir>/<name>.shard-<index+1>-of-<count>.journal` (1-based in the file
/// name, matching sweeprun's --shard i/N). N machines pointed at the same
/// directory therefore never collide, and a merge can enumerate every
/// expected shard journal from (dir, name, count) alone.
std::string shard_journal_path(const std::string& dir,
                               const std::string& name, std::size_t index,
                               std::size_t count);

/// The one dedup rule for cell results that can arrive more than once:
/// every entry of --merge's shard journals goes through add(). Per-cell
/// seed streams make honest re-execution bit-identical, so results are
/// compared on their encoded journal bytes — the currency journals and
/// reports deal in, where "equal" can never mean "close enough". The first
/// result for a cell is stored, a byte-identical repeat is counted and
/// dropped, and a byte-different one can only mean corruption or a foreign
/// workload.
class FinishedCells {
 public:
  explicit FinishedCells(std::size_t num_cells) : num_cells_(num_cells) {}

  /// Records `entry`, delivered by `source` (named in errors). Returns true
  /// for the cell's first result and false for a byte-identical duplicate.
  /// Throws PreconditionError for a cell outside the grid and for a
  /// byte-different result for a cell already recorded.
  bool add(const JournalEntry& entry, const std::string& source);

  const std::map<std::size_t, CellAggregate>& cells() const {
    return cells_;
  }
  std::size_t size() const { return cells_.size(); }
  std::size_t duplicates() const { return duplicates_; }

 private:
  struct First {
    std::string source;
    std::string line;  ///< encode_journal_entry bytes
  };
  std::size_t num_cells_;
  std::map<std::size_t, CellAggregate> cells_;
  std::map<std::size_t, First> first_;
  std::size_t duplicates_ = 0;
};

/// Fuses per-shard journals into the cell map a single uninterrupted run
/// would have produced, applying FinishedCells' dedup rule to every entry:
/// identical overlap is counted, a conflict or a cell beyond the grid
/// throws. Every journal must exist and carry `fingerprint`, and the fused
/// map must cover exactly the cells [0, num_cells); a missing or foreign
/// journal or a gap (cells no journal finished) throws PreconditionError.
/// Torn tails are dropped exactly as read_journal does, so a torn shard
/// surfaces as a gap rather than a partial result.
FinishedCells merge_journals(const std::vector<std::string>& paths,
                             const std::string& fingerprint,
                             std::size_t num_cells);

/// Append-only journal writer. By default the file is truncated and a fresh
/// header is written. A non-zero `resume_at` — read_journal's valid_bytes
/// for a compatible journal, as resume_journal passes it — cuts the file
/// back to that prefix (dropping any torn tail) and appends after it.
/// Appends are flushed per entry so a crash can lose at most the line being
/// written.
class JournalWriter {
 public:
  JournalWriter(const std::string& path, const std::string& fingerprint,
                std::size_t resume_at = 0);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one finished cell. Thread-safe.
  void append(const JournalEntry& entry);

  /// Flushes buffered bytes and fsyncs the file, so everything appended so
  /// far survives a crash or power loss. Called on graceful shutdown
  /// (SIGINT/SIGTERM drain); appends already flush per entry, so this only
  /// adds the fsync barrier.
  void sync();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::mutex mu_;
};

/// A journal opened for resume.
struct ResumedJournal {
  std::map<std::size_t, CellAggregate> cells;  ///< restored, inside the grid
  std::unique_ptr<JournalWriter> writer;       ///< appends after them
};

/// run_sweep's resume routine: reads the journal at `path`, keeps its valid
/// entries for cells of a `num_cells`-cell grid, and opens a writer that
/// appends at the valid prefix (cutting a torn tail). A missing journal
/// starts a fresh file; a foreign one (another fingerprint) is rewritten
/// from scratch with a warning on the log rather than half-trusted.
ResumedJournal resume_journal(const std::string& path,
                              const std::string& fingerprint,
                              std::size_t num_cells);

}  // namespace chronos::exp
