// Declarative experiment-sweep engine (the §VII evaluation grid as data).
//
// A SweepSpec names the parameter axes, the policies under test and a
// replication count; the engine expands the cartesian product into cells,
// derives one deterministic seed stream per cell by splitting a master
// chronos::Rng, and runs every replication through trace::run_experiment —
// across a thread pool when asked. All scheduling decisions happen at
// barriers on deterministic per-cell data, so the aggregated output is
// identical for any thread count, including 1.
//
// On top of the fixed grid the engine offers:
//  - a per-cell setup hook that runs once per cell (plan-once caching shared
//    by every replication of the cell, keyed by cell index — never by
//    floating-point axis values);
//  - adaptive replication: cells keep adding replication batches, with
//    deterministically extended seeds, until the 95% CI half-width of a
//    chosen metric reaches a target (or a hard cap);
//  - checkpoint/restart: finished cells stream to an append-only journal
//    (exp/checkpoint.h) and a restarted run skips them, with the final
//    aggregate byte-identical to an uninterrupted run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/aggregate.h"
#include "strategies/policies.h"
#include "trace/harness.h"

namespace chronos::sim {
struct OpenSystemConfig;
}  // namespace chronos::sim

namespace chronos::exp {

/// One named parameter axis. `labels`, when non-empty, must parallel
/// `values` and replaces them in reports (categorical axes such as
/// benchmark names).
struct Axis {
  std::string name;
  std::vector<double> values;
  std::vector<std::string> labels;

  void validate() const;
};

/// Adaptive replication: after the base `replications`, a cell keeps adding
/// `batch` more replications until the 95% CI half-width of `metric` is at
/// most `target_ci95`, the cell reaches `max_replications`, or — since a CI
/// needs spread — until it has at least two runs. Disabled (the fixed grid
/// behaviour) while `max_replications` is 0.
struct AdaptiveSpec {
  std::string metric = "pocd";  ///< a CellAggregate metric name
  double target_ci95 = 0.0;
  int batch = 1;
  int max_replications = 0;  ///< hard cap; 0 disables adaptive replication

  bool enabled() const { return max_replications > 0; }
  void validate(int base_replications) const;
};

/// Declarative description of an experiment grid.
struct SweepSpec {
  std::string name = "sweep";
  std::vector<strategies::PolicyKind> policies;
  std::vector<Axis> axes;  ///< cartesian product; may be empty (one point)
  int replications = 1;
  std::uint64_t seed = 1;  ///< master seed; every cell seed derives from it
  AdaptiveSpec adaptive;

  void validate() const;

  /// policies.size() x prod(axis sizes); the axes alone contribute one
  /// point when empty.
  std::size_t num_cells() const;
};

/// One resolved axis coordinate of a cell.
struct AxisValue {
  std::string name;
  double value = 0.0;
  std::string label;      ///< display text: the axis label, or the value
  std::size_t index = 0;  ///< position on the axis (stable cell coordinate)
};

/// One grid cell: a policy plus one value per axis. Cells are numbered in
/// grid order — policy-major, then axes left to right (last axis fastest).
struct SweepPoint {
  std::size_t cell = 0;
  strategies::PolicyKind policy = strategies::PolicyKind::kHadoopNS;
  std::vector<AxisValue> coordinates;

  /// Value of the named axis; throws PreconditionError when absent.
  double value(const std::string& axis) const;

  /// Position on the named axis; throws PreconditionError when absent.
  /// Prefer this over `value` for keying per-cell caches: two cells whose
  /// axis values are nearly (or even exactly) equal still have distinct
  /// indices, so index keys can never alias.
  std::size_t index(const std::string& axis) const;
};

/// Everything the engine needs to run one replication of a cell: planned
/// jobs plus harness config. When `report_utility` is set the engine also
/// evaluates metrics.utility(theta, r_min) per run and aggregates it.
///
/// `jobs` is shared so that factories which plan a cell's trace once can
/// hand the same (immutable) trace to every replication without a deep
/// copy; set_jobs() wraps a freshly built vector.
struct CellInstance {
  std::shared_ptr<const std::vector<trace::TracedJob>> jobs;
  trace::ExperimentConfig config;
  bool report_utility = false;
  double theta = 0.0;
  double r_min = 0.0;

  /// Open-system replication: when set, the engine runs run_open_system on
  /// this config instead of replaying `jobs` (which may stay null). The
  /// aggregated metrics come from the run's measured (post-warm-up) jobs.
  std::shared_ptr<const sim::OpenSystemConfig> open_system;

  void set_jobs(std::vector<trace::TracedJob> built) {
    jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        std::move(built));
  }
};

/// Builds the jobs/config for one replication of `point`. `seed` is that
/// replication's deterministic seed; factories normally assign it to
/// `config.seed` (and may also fold it into trace generation). Must be
/// thread-safe: the engine invokes it concurrently from pool workers.
using CellFactory =
    std::function<CellInstance(const SweepPoint& point, std::uint64_t seed)>;

/// Per-cell state produced once by the setup hook and shared (immutably) by
/// every replication of that cell. Planning a cell's trace is
/// seed-independent, so replanning it per replication would waste work.
struct SharedCell {
  std::shared_ptr<const std::vector<trace::TracedJob>> jobs;
  double r_min = 0.0;  ///< optional utility baseline computed at setup
};

/// Runs once per cell, before any of its replications; cached by cell index
/// and released when the cell finishes. Must be thread-safe: the engine
/// invokes it concurrently from pool workers (one call per cell).
using CellSetup = std::function<SharedCell(const SweepPoint& point)>;

/// Builds one replication of `point` from the cell's shared state. When the
/// sweep has no setup hook, `shared` is empty. Must be thread-safe.
using CellRunner = std::function<CellInstance(
    const SweepPoint& point, std::uint64_t seed, const SharedCell& shared)>;

struct SweepHooks {
  CellRunner run;   ///< required
  CellSetup setup;  ///< optional plan-once hook
};

/// Aggregated outcome of one cell.
struct CellResult {
  SweepPoint point;
  std::string policy_name;
  CellAggregate aggregate;
};

/// Outcome of a whole sweep, cells in grid order. With adaptive replication
/// the per-cell replication count is `cells[i].aggregate.runs`;
/// `replications` stays the spec's base count.
struct SweepResult {
  std::string name;
  std::vector<std::string> axis_names;
  int replications = 0;
  std::vector<CellResult> cells;
};

/// Cells owned by fixed lease `index` of `count` (sweeprun's --shard I/N):
/// the contiguous, balanced range [num_cells*index/count,
/// num_cells*(index+1)/count), ascending. Leases are disjoint, cover every
/// cell, differ in size by at most one, and are empty when count exceeds
/// num_cells. Throws PreconditionError unless index < count.
std::vector<std::size_t> partition_cells(std::size_t num_cells,
                                         std::size_t index,
                                         std::size_t count);

/// Throws PreconditionError unless `cells` is strictly ascending and every
/// entry is a cell of a `num_cells`-cell grid — the contract of
/// SweepOptions::cells and of the fabric controller's todo list.
void check_cell_list(const std::vector<std::size_t>& cells,
                     std::size_t num_cells);

/// Live progress of a running sweep, as passed to SweepOptions::on_progress.
/// Counts cover only the cells this process owns (SweepOptions::cells).
struct SweepProgress {
  std::size_t cells_total = 0;    ///< cells this process owns
  std::size_t cells_done = 0;     ///< finished, incl. journal-restored cells
  std::size_t cells_resumed = 0;  ///< restored from the journal at startup
  std::uint64_t replications_done = 0;  ///< run by this process so far
};

struct SweepOptions {
  /// Worker threads; 0 means ThreadPool::hardware_threads().
  int threads = 1;

  /// The cells this process runs, strictly ascending — the vocabulary of
  /// the fabric's ControllerConfig::todo. Unset means the whole grid; a set
  /// list may be empty (a --shard lease on a grid with fewer cells than
  /// shards). A static shard is the fixed lease partition_cells returns, and
  /// a fabric worker runs each leased cell as a one-cell list. Per-cell seed
  /// streams are split off the master in full grid order whatever the list,
  /// so any assignment yields the numbers of a whole-grid run. The result
  /// covers only these cells, and restored journal entries outside them are
  /// dropped; render full reports by fusing the journals (merge_journals in
  /// exp/checkpoint.h) and passing the cell map to assemble_result.
  std::optional<std::vector<std::size_t>> cells;

  /// Path of the checkpoint journal; empty disables checkpointing. When the
  /// file exists and matches the spec (see exp/checkpoint.h), finished
  /// cells are restored from it instead of re-run; newly finished cells are
  /// appended as the sweep progresses.
  std::string journal;

  /// Extra state folded into the journal fingerprint: anything the cell
  /// hooks depend on that the spec cannot see (a manifest's trace/planner/
  /// experiment templates, a binary's workload version). Changing it
  /// invalidates existing journals instead of silently trusting them.
  std::string journal_salt;

  /// Optional progress observer: invoked once at startup (with the resumed
  /// state) and after every completed replication and cell. Calls come
  /// concurrently from pool workers, so the callback must be thread-safe,
  /// fast, and must not throw. Purely observational — it cannot influence
  /// seeds, scheduling, or results.
  std::function<void(const SweepProgress&)> on_progress;

  /// Cooperative cancellation (SIGINT/SIGTERM drain). When non-null and set,
  /// the engine stops at the next replication-round barrier: the round in
  /// flight finishes, every cell that completed is journaled, the journal is
  /// flushed + fsynced, and run_sweep throws SweepCancelled. Re-running with
  /// the same journal resumes exactly there — nothing finished is lost, and
  /// the eventual reports are byte-identical to an uninterrupted run.
  const std::atomic<bool>* cancel = nullptr;
};

/// Thrown by run_sweep when SweepOptions::cancel was observed. By the time
/// it propagates, all finished cells are journaled and the journal is
/// synced; the run is cleanly resumable.
class SweepCancelled : public std::runtime_error {
 public:
  SweepCancelled() : std::runtime_error("sweep cancelled") {}
};

/// Runs the sweep. The result (and hence any report rendered from it) is
/// byte-identical for every `options.threads` value, and — when a journal
/// is used — byte-identical between an interrupted-and-restarted run and an
/// uninterrupted one. A fabric worker runs each leased cell through here as
/// a one-cell list, so a cell re-executed after a worker crash (or twice
/// during a lease handover) yields the exact same journal entry — what
/// makes fabric reassignment idempotent and its dedup byte-exact.
SweepResult run_sweep(const SweepSpec& spec, const SweepHooks& hooks,
                      const SweepOptions& options = {});

/// Builds a SweepResult from already-aggregated cells (journal entries, a
/// shard merge), one CellResult per map entry in cell order. Every key must
/// be a valid cell index of `spec`. Rendering the result of a full map is
/// byte-identical to the report an uninterrupted run_sweep would produce.
SweepResult assemble_result(
    const SweepSpec& spec,
    const std::map<std::size_t, CellAggregate>& cells);

/// Convenience overload for sweeps without a setup hook.
SweepResult run_sweep(const SweepSpec& spec, const CellFactory& factory,
                      const SweepOptions& options = {});

}  // namespace chronos::exp
