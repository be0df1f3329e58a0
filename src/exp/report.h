// Report emitters for sweep results: CSV, JSON, and fixed-width text.
//
// All formats are deterministic and locale-free: rendering the same
// SweepResult always yields identical bytes, which is what makes "same CSV
// for any --threads" a checkable property.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "exp/sweep.h"

namespace chronos::exp {

/// Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  /// Renders the table (header, rule, rows) as a string.
  std::string str() const;

  void print() const { std::fputs(str().c_str(), stdout); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// CSV: one row per cell. Columns: policy, one per axis (labels when the
/// axis has them), replications, then mean/ci95 pairs of every metric and
/// the attempt totals. Utility columns are empty when no cell reported one.
std::string to_csv(const SweepResult& result);

/// JSON object with the sweep name, axes and a `cells` array.
std::string to_json(const SweepResult& result);

/// Text table: policy + axis columns, then PoCD / cost / machine-time /
/// mean-r (and utility when present), each as "mean +- ci95".
Table to_table(const SweepResult& result);

/// Writes `content` to `path`, throwing PreconditionError on I/O failure.
/// The one writer of every whole output file (CSV, JSON, metrics, trace).
/// An existing regular file is replaced, not truncated: it is unlinked and
/// created anew, because truncating a just-written file makes ext4 and XFS
/// force its blocks to disk on close (tens of ms per report). So a
/// rewritten output gets a new inode and default permissions. Symlinks,
/// devices (/dev/null, /dev/stdout) and FIFOs are opened as given. Reports
/// are never synced: the fsynced sweep journal is the durable record, and
/// every report can be rendered again from it.
void write_file(const std::string& path, const std::string& content);

}  // namespace chronos::exp
