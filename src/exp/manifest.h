// Sweep manifests: experiment grids as config files instead of binaries.
//
// A manifest is a small INI-subset file (no external dependencies) that
// declares everything tools/sweeprun needs to run a grid: the axes,
// policies, replication policy (fixed or adaptive), the synthetic-trace and
// planner templates that build each cell, and where the reports and the
// checkpoint journal go. Example (the checked-in manifests/fig3_theta.ini,
// whose reports tests/golden/fig3_theta.{csv,json} pin byte-for-byte):
//
//   [sweep]
//   name = fig3_theta
//   policies = mantri, clone, s-restart, s-resume
//   replications = 3
//   seed = 41
//
//   [axis.theta]
//   values = 1e-6, 1e-5, 1e-4, 1e-3
//
//   [trace]
//   num_jobs = 900
//   duration_hours = 30
//   mean_tasks = 60
//   max_tasks = 600
//   seed = 77               # also: t_min_lo, t_min_hi, and the bindable
//                           # beta / deadline_factor (each pins lo = hi);
//                           # other TraceConfig fields keep their defaults
//
//   [planner]
//   theta = @theta          # "@name" binds the field to that axis' value
//
//   [experiment]
//   cluster = large_scale   # the only preset (the key may be omitted)
//   utility = on
//   r_min = baseline        # mean no-speculation PoCD of the cell's trace
//
//   [output]
//   csv = fig3.csv
//   journal = fig3.journal
//
//   [shard]                 # optional: cluster sharding defaults
//   count = 4               # sweeprun --shard i/4 on each machine,
//   dir = journals          # per-shard journals in this shared directory
//
// Syntax: "[section]" headers, "key = value" pairs, "#"/";" full-line
// comments, "#" inline comments (a line is cut at its first "#"), and
// comma-separated lists of trimmed items (no quoting: an item holds no
// comma or "#"). Numbers must be finite ("nan" and "inf" are rejected).
// Parsing is locale-independent and every error names the offending line;
// an integer outside its key's range fails there too instead of wrapping.
//
// parse_manifest is the only code that knows the keys. The cell-template
// sections ([trace], [stage.N], [planner], [experiment], [arrivals]) are
// read once, into the structs below ([arrivals] straight into a
// sim::OpenSystemConfig template), and each read also appends
// "section.key=<canonical value>" to Manifest::journal_salt: the value the
// cell hooks will use, or the code default when the key is absent.
// [sweep], [axis.*] and [adaptive] are covered by spec_fingerprint;
// [output] and [shard] never change the numbers and stay out.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "sim/open_system.h"
#include "trace/google_trace.h"

namespace chronos::exp {

/// A manifest value that is either a fixed number or bound to an axis
/// ("@theta"): bound fields resolve to the cell's coordinate on that axis.
struct Binding {
  double fixed = 0.0;
  std::string axis;  ///< non-empty = bound

  bool bound() const { return !axis.empty(); }
  double resolve(const SweepPoint& point) const {
    return bound() ? point.value(axis) : fixed;
  }
};

/// Where the utility baseline R_min comes from when utility reporting is on.
enum class RMinMode {
  kBaseline,  ///< mean no-speculation PoCD of the cell's (unplanned) trace
  kFixed,     ///< the manifest's literal value
};

struct ManifestOutputs {
  std::string csv;      ///< empty = no CSV file
  std::string json;     ///< empty = no JSON file
  std::string journal;  ///< empty = no checkpoint journal
};

/// Optional [arrivals] section: switches the sweep's cells from replaying
/// the closed [trace] workload to running the open-system engine
/// (sim/open_system.h). The [trace] section still supplies the per-job
/// shape template; num_jobs/duration_hours/seed of [trace] are unused.
///
///   [arrivals]
///   kind = poisson          # the only process (the key may be omitted)
///   rate = @lambda          # jobs/second; bindable
///   duration_hours = 1      # arrival horizon
///   warm_up_hours = 0.1     # measurement starts here
///   drain = on              # the only value: run to empty after the
///                           #   horizon (the key may be omitted)
///   plan = policy           # policy | auto (per-job optimize_all)
///   plan_cache = off        # off | quantized:<grid>; quantized shares
///                           #   plans within geometric (1+grid)-ratio
///                           #   buckets (serve/planner.h)
///   admission = on          # the only value: capacity-aware admission
///                           #   control (the key may be omitted)
///   nodes = @nodes          # bindable; uniform cluster of `containers`
///   containers = 8          #   per node, at most 127 (defaults to the
///                           #   preset cluster); placement keeps
///                           #   containers + 1 bits per node (sim/cluster.h)
///
/// With [arrivals], `r_min = baseline` is rejected: the baseline PoCD of a
/// pre-generated trace is a closed-system property; utility sweeps must
/// give a numeric r_min.
struct ManifestArrivals {
  /// The run template the section parses into: horizon, plan mode and
  /// plan cache. Each cell copies it and fills the rate, cluster,
  /// workload, planner, policy and seed.
  sim::OpenSystemConfig open;

  Binding rate{.fixed = 0.1, .axis = {}};
  std::optional<Binding> nodes;  ///< unset = preset cluster
  int containers = 8;
};

/// One [stage.N] section (N = 1, 2, ... contiguous): a deterministic stage
/// template appended after the sampled root stage, so every job of the cell
/// becomes an (N+1)-stage DAG. Shape fields are axis-bindable; `deps` lists
/// predecessor stage indices in final job numbering (0 = the sampled root),
/// empty meaning a barrier on the previous stage.
///
///   [stage.1]
///   tasks = 4
///   t_min = @t_min_reduce
///   beta = 1.6
///   deps = 0
struct ManifestStage {
  Binding tasks{.fixed = 1.0, .axis = {}};
  Binding t_min{.fixed = 1.0, .axis = {}};
  Binding beta{.fixed = 1.5, .axis = {}};
  std::vector<int> deps;
};

/// Optional [shard] section: defaults for process-level sharding, so a
/// cluster recipe ("run shard i/N on machine i, then merge") lives in the
/// manifest instead of every machine's command line. Never part of the
/// journal fingerprint — how a grid is split across processes must not
/// change its numbers.
struct ManifestShard {
  int count = 0;          ///< default shard count; 0 = unsharded
  std::string dir = "."; ///< shared directory for the per-shard journals
};

/// Everything a manifest declares. `spec` is fully validated; the remaining
/// fields parameterize the cell hooks that make_hooks builds.
struct Manifest {
  SweepSpec spec;

  trace::TraceConfig trace;  ///< fixed trace-template fields
  std::optional<Binding> trace_beta;  ///< sets beta_lo = beta_hi per cell
  std::optional<Binding> trace_deadline_factor;  ///< sets factor lo = hi

  /// [stage.N] templates, in section order (stages[0] is [stage.1], the
  /// job's stage 1). Empty = single-stage jobs (the historical workload).
  std::vector<ManifestStage> stages;

  Binding planner_theta{.fixed = 1e-4, .axis = {}};
  std::optional<Binding> planner_tau_est_factor;
  std::optional<Binding> planner_tau_kill_factor;

  bool report_utility = false;
  RMinMode r_min_mode = RMinMode::kBaseline;
  double r_min_fixed = 0.0;
  double r_min_offset = 0.0;  ///< added to R_min (clamped at 0), cf. fig4_beta.ini

  ManifestOutputs outputs;
  ManifestShard shard;
  std::optional<ManifestArrivals> arrivals;  ///< open-system sweep when set

  /// Canonical record of every cell-template key the parser read, set or
  /// defaulted. Pass it as SweepOptions::journal_salt so that editing
  /// those sections invalidates an existing journal instead of silently
  /// resuming from results of the old configuration.
  std::string journal_salt;
};

/// Parses manifest text. Throws PreconditionError with a line-numbered
/// message on any syntax or semantic problem (unknown section/key, bad
/// number, binding to a missing axis, ...).
Manifest parse_manifest(const std::string& text);

/// Reads and parses a manifest file.
Manifest load_manifest(const std::string& path);

/// Builds the sweep hooks a manifest describes: a setup hook that generates
/// and plans each cell's trace once (resolving axis bindings, computing the
/// baseline R_min when asked) and a runner that wires the shared trace into
/// every replication.
SweepHooks make_hooks(const Manifest& manifest);

}  // namespace chronos::exp
