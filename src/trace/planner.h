// Per-job planning: maps a JobSpec onto the analytic model, runs the
// Algorithm-1 optimizer, and fills the strategy fields (r, tau_est,
// tau_kill, price) — exactly what the Application Master does at job
// submission in §VI.
#pragma once

#include <span>
#include <vector>

#include "core/chronos.h"
#include "strategies/policies.h"
#include "trace/google_trace.h"
#include "trace/spot_price.h"

namespace chronos::trace {

/// Planning knobs shared by an experiment run.
struct PlannerConfig {
  /// Strategy timers as multiples of the job's t_min (Tables I/II sweep
  /// these). Clone uses tau_est = 0 regardless.
  double tau_est_factor = 0.3;
  double tau_kill_factor = 0.8;
  double theta = 1e-4;
  /// R_min policy: PoCD of the no-speculation baseline (the paper uses
  /// Hadoop-NS's PoCD as R_min in §VII-A).
  bool r_min_from_baseline = true;
  double r_min = 0.0;  ///< used when r_min_from_baseline is false
  core::OptimizerOptions optimizer;
};

/// PoCD of the no-speculation baseline for one stage under a deadline: the
/// R_min of r_min_from_baseline mode.
double baseline_pocd(const mapreduce::StageSpec& stage, double deadline);

/// Analytic-model view of one stage under its deadline share.
core::JobParams stage_job_params(const mapreduce::StageSpec& stage,
                                 double deadline, const PlannerConfig& config,
                                 core::Strategy strategy);

/// Economics for one stage: spot price at submission plus the run's theta
/// and R_min policy (baseline_pocd of the stage under its deadline share).
core::Economics stage_economics(const mapreduce::StageSpec& stage,
                                double deadline, const PlannerConfig& config,
                                double price);

/// Analytic-model view of a single-stage job (stage 0 under the full job
/// deadline).
core::JobParams to_job_params(const mapreduce::JobSpec& spec,
                              const PlannerConfig& config,
                              core::Strategy strategy);

/// Economics for a single-stage job.
core::Economics to_economics(const mapreduce::JobSpec& spec,
                             const PlannerConfig& config, double price);

/// Maps a simulator policy to its analytic strategy; only the three Chronos
/// policies have one.
bool has_analytic_strategy(strategies::PolicyKind kind);
core::Strategy analytic_strategy(strategies::PolicyKind kind);

/// Inverse of analytic_strategy: the simulator policy that executes an
/// analytic strategy (total on core::Strategy).
strategies::PolicyKind policy_of(core::Strategy strategy);

/// Expected makespan of N i.i.d. Pareto(t_min, beta) tasks:
/// E[max] = t_min * Gamma(N+1) Gamma(1 - 1/beta) / Gamma(N+1 - 1/beta).
/// Requires N >= 1, beta > 1.
double expected_stage_makespan(int num_tasks, double t_min, double beta);

/// Critical-path proportional deadline split. Each stage's expected
/// makespan is chained through the dependency DAG; the stage deadline is
/// deadline * span_s / L where L is the longest (critical) path's total
/// expected makespan. Stages on the critical path get shares that sum to
/// the whole deadline; off-path stages get proportionally generous slack.
/// For a two-stage barrier chain this reduces to the classic proportional
/// map/reduce split. A single-stage job gets the whole deadline, with no
/// makespan arithmetic; more stages require every stage beta > 1.
std::vector<double> critical_path_split(const mapreduce::JobSpec& spec);

/// Result of planning a job: the policy that runs it, and per stage its
/// deadline share, its optimizer result (default-constructed for a
/// non-analytic policy) and the r written into the spec.
struct StagedPlan {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  std::vector<double> stage_deadlines;
  std::vector<core::OptimizationResult> stages;
  std::vector<long long> r;

  /// Every stage's optimizer run was feasible (never, for a baseline).
  bool feasible() const;
};

/// Writes a planning decision into a spec: the price, and per stage tau_est
/// (0 under Clone), tau_kill and r (0 under a baseline policy). `r` holds
/// one entry per stage. The timers come from the spec's own stage shapes
/// and the config's factors, so a decision replayed from a plan cache never
/// carries another job's price or timers. This is the only code that
/// writes a plan into a spec.
void write_plan(mapreduce::JobSpec& spec, strategies::PolicyKind kind,
                std::span<const long long> r, const PlannerConfig& config,
                double price);

/// Algorithm 1 as the Application Master runs it at submission (§VI), for
/// every stage count: splits the deadline along the critical path, runs one
/// optimize() per stage (§III: stage PoCDs are optimized separately), and
/// writes the plan into the spec. An infeasible stage falls back to r = 1.
/// Stage shares below t_min * (1 + tau_est_factor) are raised to that floor
/// on multi-stage jobs; a single-stage job plans against its whole
/// deadline. *When* a job is priced is decided by the caller handing over
/// `price`.
///
/// With auto_strategy, `policy` is ignored: optimize_all picks the best of
/// Clone / S-Restart / S-Resume on the root stage's critical-path view with
/// S-Resume-style params. A single-stage job keeps that optimize_all result
/// as its plan; a staged one is then planned stage by stage under the
/// winner.
///
/// Fills `plan` in place, reusing its storage: a caller that plans many
/// jobs can keep one StagedPlan per thread and allocate nothing per job.
void plan_into(mapreduce::JobSpec& spec, bool auto_strategy,
               strategies::PolicyKind policy, const PlannerConfig& config,
               double price, StagedPlan& plan);

/// plan_into under a fixed policy, into a fresh StagedPlan.
StagedPlan plan_staged_spec(mapreduce::JobSpec& spec,
                            strategies::PolicyKind policy,
                            const PlannerConfig& config, double price);

/// plan_staged_spec with the spot price sampled at job.submit_time (never
/// trace-generation or retry time).
StagedPlan plan_staged_job(TracedJob& job, strategies::PolicyKind policy,
                           const PlannerConfig& config,
                           const SpotPriceModel& prices);

/// Plans a whole trace in place.
void plan_trace(std::vector<TracedJob>& jobs, strategies::PolicyKind policy,
                const PlannerConfig& config, const SpotPriceModel& prices);

}  // namespace chronos::trace
