#include "exp/sweep.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/numeric.h"
#include "common/rng.h"
#include "exp/checkpoint.h"
#include "exp/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/open_system.h"
#include "strategies/policies.h"

namespace chronos::exp {

namespace {

const obs::Counter c_replications = obs::counter("exp.sweep.replications");
const obs::Counter c_cells_finished = obs::counter("exp.sweep.cells_finished");
const obs::Counter c_cells_planned = obs::counter("exp.sweep.cells_planned");
const obs::Counter c_cells_resumed = obs::counter("exp.sweep.cells_resumed");
const obs::Counter c_adaptive_batches =
    obs::counter("exp.sweep.adaptive_batches");
const obs::Timer t_replication = obs::timer("exp.sweep.replication");

/// Throws PreconditionError unless `cells` is strictly ascending and every
/// entry is a cell of a `num_cells`-cell grid (SweepOptions::cells).
void check_cell_list(const std::vector<std::size_t>& cells,
                     std::size_t num_cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CHRONOS_EXPECTS(cells[i] < num_cells,
                    "cell " + std::to_string(cells[i]) +
                        " out of range for a " + std::to_string(num_cells) +
                        "-cell sweep");
    CHRONOS_EXPECTS(i == 0 || cells[i] > cells[i - 1],
                    "cell lists must be strictly ascending");
  }
}

/// Shared progress state behind SweepOptions::on_progress. Counts are
/// relaxed atomics bumped from pool workers; emit() snapshots them into a
/// SweepProgress. Observational only — never read by the engine itself.
class ProgressTracker {
 public:
  ProgressTracker(const SweepOptions& options, std::size_t cells_total,
                  std::size_t cells_resumed)
      : callback_(options.on_progress),
        cells_total_(cells_total),
        cells_resumed_(cells_resumed),
        cells_done_(cells_resumed) {}

  void replication_done() {
    replications_.fetch_add(1, std::memory_order_relaxed);
    emit();
  }

  void cell_done() {
    cells_done_.fetch_add(1, std::memory_order_relaxed);
    emit();
  }

  void emit() const {
    if (!callback_) {
      return;
    }
    SweepProgress progress;
    progress.cells_total = cells_total_;
    progress.cells_done = cells_done_.load(std::memory_order_relaxed);
    progress.cells_resumed = cells_resumed_;
    progress.replications_done =
        replications_.load(std::memory_order_relaxed);
    callback_(progress);
  }

 private:
  const std::function<void(const SweepProgress&)>& callback_;
  std::size_t cells_total_;
  std::size_t cells_resumed_;
  std::atomic<std::size_t> cells_done_;
  std::atomic<std::uint64_t> replications_{0};
};

/// Decodes flat cell index `cell` into a point (policy-major, last axis
/// fastest, like nested for-loops over policies then axes).
SweepPoint decode_cell(const SweepSpec& spec, std::size_t cell) {
  SweepPoint point;
  point.cell = cell;
  std::size_t rest = cell;
  for (std::size_t a = spec.axes.size(); a-- > 0;) {
    const Axis& axis = spec.axes[a];
    const std::size_t index = rest % axis.values.size();
    rest /= axis.values.size();
    AxisValue coordinate;
    coordinate.name = axis.name;
    coordinate.value = axis.values[index];
    coordinate.index = index;
    coordinate.label = axis.labels.empty()
                           ? numeric::format_double_g(coordinate.value)
                           : axis.labels[index];
    point.coordinates.insert(point.coordinates.begin(),
                             std::move(coordinate));
  }
  point.policy = spec.policies[rest];
  return point;
}

/// CI half-width of the adaptive metric; used only at inter-round barriers,
/// on deterministic per-cell data, so adaptivity cannot break the
/// thread-count-independence guarantee.
double metric_ci(const CellAggregate& aggregate, const std::string& metric) {
  const MetricSummary* summary = find_metric(aggregate, metric);
  CHRONOS_ENSURES(summary != nullptr, "unknown adaptive metric survived "
                                      "validation: '" + metric + "'");
  return summary->ci95;
}

/// One unfinished cell while the sweep runs: its decoded point, its seed
/// stream, the shared setup product, the replications so far, and the
/// replication target for the current round.
struct CellWork {
  std::size_t cell = 0;
  SweepPoint point;
  Rng stream;
  SharedCell shared;
  std::vector<RunRecord> runs;
  std::size_t target = 0;
};

void run_one_replication(const SweepHooks& hooks, const CellWork& work,
                         std::uint64_t seed, RunRecord& record,
                         ProgressTracker& progress) {
  {
    obs::TraceSpan span("sweep.rep", "exp");
    span.note("cell", static_cast<double>(work.cell));
    const obs::ScopedTimer rep_timer(t_replication);
    CellInstance instance = hooks.run(work.point, seed, work.shared);
    if (instance.open_system != nullptr) {
      auto open = sim::run_open_system(*instance.open_system);
      record.result.policy_name =
          instance.open_system->auto_strategy
              ? "Auto"
              : strategies::to_string(instance.open_system->policy);
      record.result.metrics = std::move(open.metrics);
      record.result.events_executed = open.events_executed;
    } else {
      CHRONOS_EXPECTS(instance.jobs != nullptr,
                      "cell runner must set CellInstance::jobs");
      record.result = run_experiment(*instance.jobs, instance.config);
    }
    record.has_utility = instance.report_utility;
    if (instance.report_utility) {
      record.utility =
          record.result.metrics.utility(instance.theta, instance.r_min);
    }
  }
  c_replications.add();
  progress.replication_done();
}

}  // namespace

void Axis::validate() const {
  CHRONOS_EXPECTS(!name.empty(), "axis needs a name");
  CHRONOS_EXPECTS(!values.empty(), "axis needs at least one value");
  CHRONOS_EXPECTS(labels.empty() || labels.size() == values.size(),
                  "axis labels must parallel its values");
}

void AdaptiveSpec::validate(int base_replications) const {
  if (!enabled()) {
    return;
  }
  CHRONOS_EXPECTS(target_ci95 > 0.0,
                  "adaptive replication needs target_ci95 > 0");
  CHRONOS_EXPECTS(batch >= 1, "adaptive replication needs batch >= 1");
  CHRONOS_EXPECTS(max_replications >= base_replications,
                  "adaptive max_replications must be >= the base "
                  "replication count");
  CHRONOS_EXPECTS(find_metric(CellAggregate{}, metric) != nullptr,
                  "unknown adaptive metric '" + metric + "'");
}

std::vector<std::size_t> partition_cells(std::size_t num_cells,
                                         std::size_t index,
                                         std::size_t count) {
  CHRONOS_EXPECTS(index < count,
                  "shard index " + std::to_string(index) +
                      " out of range for " + std::to_string(count) +
                      " shard(s)");
  // Sized up front and filled by offset, never by stepping a cursor past
  // the last cell: `cell += count` would wrap on huge grids.
  const std::size_t size =
      index < num_cells ? (num_cells - 1 - index) / count + 1 : 0;
  std::vector<std::size_t> cells(size);
  for (std::size_t k = 0; k < size; ++k) {
    cells[k] = index + k * count;
  }
  return cells;
}

void SweepSpec::validate() const {
  CHRONOS_EXPECTS(!policies.empty(), "sweep needs at least one policy");
  CHRONOS_EXPECTS(replications >= 1, "sweep needs at least one replication");
  for (const Axis& axis : axes) {
    axis.validate();
  }
  adaptive.validate(replications);
}

std::size_t SweepSpec::num_cells() const {
  std::size_t cells = policies.size();
  for (const Axis& axis : axes) {
    cells *= axis.values.size();
  }
  return cells;
}

double SweepPoint::value(const std::string& axis) const {
  for (const AxisValue& coordinate : coordinates) {
    if (coordinate.name == axis) {
      return coordinate.value;
    }
  }
  CHRONOS_EXPECTS(false, "sweep point has no axis named '" + axis + "'");
}

std::size_t SweepPoint::index(const std::string& axis) const {
  for (const AxisValue& coordinate : coordinates) {
    if (coordinate.name == axis) {
      return coordinate.index;
    }
  }
  CHRONOS_EXPECTS(false, "sweep point has no axis named '" + axis + "'");
}

SweepResult run_sweep(const SweepSpec& spec, const SweepHooks& hooks,
                      const SweepOptions& options) {
  spec.validate();
  CHRONOS_EXPECTS(hooks.run != nullptr, "sweep needs a cell runner");
  CHRONOS_EXPECTS(options.threads >= 0, "threads must be >= 0");

  const std::size_t cells = spec.num_cells();
  std::vector<std::size_t> owned;
  if (options.cells.has_value()) {
    check_cell_list(*options.cells, cells);
    owned = *options.cells;
  } else {
    owned.resize(cells);
    std::iota(owned.begin(), owned.end(), std::size_t{0});
  }
  const std::size_t base_reps = static_cast<std::size_t>(spec.replications);
  const std::size_t rep_cap =
      spec.adaptive.enabled()
          ? static_cast<std::size_t>(spec.adaptive.max_replications)
          : base_reps;

  ResumedJournal journal;
  if (!options.journal.empty()) {
    journal = resume_journal(options.journal,
                             spec_fingerprint(spec, options.journal_salt),
                             cells);
  }
  std::map<std::size_t, CellAggregate>& finished = journal.cells;

  // One seed stream per cell, split off the master serially and in full
  // grid order before any task runs: the seed of replication k of cell c
  // depends only on (spec.seed, c, k) — never on thread scheduling, on
  // which cells this process owns or the journal already held, or on how
  // many extra replications other cells requested adaptively.
  Rng master(spec.seed);
  std::size_t next_stream = 0;
  std::vector<CellWork> pending;
  for (const std::size_t c : owned) {
    for (; next_stream < c; ++next_stream) {
      master.split();
    }
    Rng stream = master.split();
    ++next_stream;
    if (finished.find(c) != finished.end()) {
      continue;
    }
    CellWork work;
    work.cell = c;
    work.point = decode_cell(spec, c);
    work.stream = stream;
    work.target = base_reps;
    pending.push_back(std::move(work));
  }

  obs::TraceSpan sweep_span("sweep.run", "exp");
  sweep_span.note("cells", static_cast<double>(owned.size()));
  sweep_span.note("resumed",
                  static_cast<double>(owned.size() - pending.size()));
  c_cells_planned.add(owned.size());
  c_cells_resumed.add(owned.size() - pending.size());
  ProgressTracker progress(options, owned.size(),
                           owned.size() - pending.size());
  progress.emit();  // startup snapshot: what the journal already covered

  if (!pending.empty()) {
    int threads = options.threads == 0 ? ThreadPool::hardware_threads()
                                       : options.threads;
    threads = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads), pending.size() * base_reps));
    ThreadPool pool(threads);

    // Setup phase: plan every unfinished cell once, in parallel. Journaled
    // cells never re-plan — on restart only the remaining work is redone.
    if (hooks.setup) {
      for (CellWork& work : pending) {
        pool.submit([&hooks, &work] {
          obs::TraceSpan span("sweep.setup", "exp");
          span.note("cell", static_cast<double>(work.cell));
          work.shared = hooks.setup(work.point);
        });
      }
      pool.wait();
    }

    // Replication rounds. Each round runs every pending cell up to its
    // current target across the pool, then decides — at the barrier, from
    // deterministic data — which cells are done (journal them) and which
    // need another adaptive batch.
    while (!pending.empty()) {
      // Graceful drain: stop at the barrier, before committing to another
      // round. Everything that finished is already journaled; sync so it
      // survives the process exit that normally follows.
      if (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) {
        if (journal.writer != nullptr) {
          journal.writer->sync();
        }
        throw SweepCancelled();
      }
      for (CellWork& work : pending) {
        const std::size_t have = work.runs.size();
        work.runs.resize(work.target);
        for (std::size_t k = have; k < work.target; ++k) {
          const std::uint64_t seed = work.stream.split_seed();
          RunRecord& record = work.runs[k];
          pool.submit([&hooks, &work, &record, seed, &progress] {
            run_one_replication(hooks, work, seed, record, progress);
          });
        }
      }
      pool.wait();

      std::vector<CellWork> still_running;
      for (CellWork& work : pending) {
        CellAggregate aggregate = aggregate_runs(work.runs);
        const std::size_t runs = work.runs.size();
        if (spec.adaptive.enabled() && runs < rep_cap &&
            (runs < 2 || metric_ci(aggregate, spec.adaptive.metric) >
                             spec.adaptive.target_ci95)) {
          work.target = std::min(
              rep_cap, runs + static_cast<std::size_t>(spec.adaptive.batch));
          c_adaptive_batches.add();
          still_running.push_back(std::move(work));
        } else {
          if (journal.writer != nullptr) {
            journal.writer->append({work.cell, aggregate});
          }
          finished.insert_or_assign(work.cell, std::move(aggregate));
          c_cells_finished.add();
          progress.cell_done();
        }
      }
      pending = std::move(still_running);
    }
  }

  // Only the owned cells are reported; restored journal entries outside
  // them (say, resuming a shard from a fused journal) are dropped.
  std::map<std::size_t, CellAggregate> owned_cells;
  for (const std::size_t c : owned) {
    owned_cells.insert_or_assign(c, std::move(finished.at(c)));
  }
  return assemble_result(spec, owned_cells);
}

SweepResult assemble_result(
    const SweepSpec& spec,
    const std::map<std::size_t, CellAggregate>& cells) {
  spec.validate();
  const std::size_t num_cells = spec.num_cells();
  SweepResult result;
  result.name = spec.name;
  result.replications = spec.replications;
  for (const Axis& axis : spec.axes) {
    result.axis_names.push_back(axis.name);
  }
  result.cells.reserve(cells.size());
  for (const auto& [c, aggregate] : cells) {
    CHRONOS_EXPECTS(c < num_cells,
                    "cell index " + std::to_string(c) +
                        " out of range for a " + std::to_string(num_cells) +
                        "-cell sweep");
    CellResult cell;
    cell.point = decode_cell(spec, c);
    cell.policy_name = strategies::to_string(cell.point.policy);
    cell.aggregate = aggregate;
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace chronos::exp
