#include "trace/planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "common/numeric.h"

namespace chronos::trace {

core::JobParams stage_job_params(const mapreduce::StageSpec& stage,
                                 double deadline, const PlannerConfig& config,
                                 core::Strategy strategy) {
  core::JobParams params;
  params.num_tasks = stage.num_tasks;
  params.deadline = deadline;
  params.t_min = stage.t_min;
  params.beta = stage.beta;
  params.tau_est = strategy == core::Strategy::kClone
                       ? 0.0
                       : config.tau_est_factor * stage.t_min;
  params.tau_kill = config.tau_kill_factor * stage.t_min;
  // An empty kill window makes an extra attempt free in the model, so
  // Algorithm 1 would climb to max_r.
  CHRONOS_EXPECTS(
      params.tau_kill > params.tau_est,
      strategy == core::Strategy::kClone
          ? "empty kill window: Clone needs tau_kill_factor > 0 (it has "
            "no tau_est_factor), got " +
                numeric::format_double_g(config.tau_kill_factor)
          : "empty kill window: " + core::to_string(strategy) +
                " needs tau_kill_factor > tau_est_factor, got " +
                numeric::format_double_g(config.tau_kill_factor) +
                " <= " + numeric::format_double_g(config.tau_est_factor));
  params.phi_est = core::default_phi_est(params);
  return params;
}

double baseline_pocd(const mapreduce::StageSpec& stage, double deadline) {
  core::JobParams params;  // tau_est = tau_kill = phi_est = 0
  params.num_tasks = stage.num_tasks;
  params.deadline = deadline;
  params.t_min = stage.t_min;
  params.beta = stage.beta;
  return core::pocd_no_speculation(params);
}

core::Economics stage_economics(const mapreduce::StageSpec& stage,
                                double deadline, const PlannerConfig& config,
                                double price) {
  core::Economics econ;
  econ.price = price;
  econ.theta = config.theta;
  econ.r_min = config.r_min_from_baseline ? baseline_pocd(stage, deadline)
                                          : config.r_min;
  return econ;
}

core::JobParams to_job_params(const mapreduce::JobSpec& spec,
                              const PlannerConfig& config,
                              core::Strategy strategy) {
  return stage_job_params(spec.stage(0), spec.deadline, config, strategy);
}

core::Economics to_economics(const mapreduce::JobSpec& spec,
                             const PlannerConfig& config, double price) {
  return stage_economics(spec.stage(0), spec.deadline, config, price);
}

bool has_analytic_strategy(strategies::PolicyKind kind) {
  switch (kind) {
    case strategies::PolicyKind::kClone:
    case strategies::PolicyKind::kSRestart:
    case strategies::PolicyKind::kSResume:
      return true;
    default:
      return false;
  }
}

core::Strategy analytic_strategy(strategies::PolicyKind kind) {
  switch (kind) {
    case strategies::PolicyKind::kClone:
      return core::Strategy::kClone;
    case strategies::PolicyKind::kSRestart:
      return core::Strategy::kSpeculativeRestart;
    case strategies::PolicyKind::kSResume:
      return core::Strategy::kSpeculativeResume;
    default:
      break;
  }
  CHRONOS_EXPECTS(false, "policy has no analytic strategy");
}

strategies::PolicyKind policy_of(core::Strategy strategy) {
  switch (strategy) {
    case core::Strategy::kClone:
      return strategies::PolicyKind::kClone;
    case core::Strategy::kSpeculativeRestart:
      return strategies::PolicyKind::kSRestart;
    case core::Strategy::kSpeculativeResume:
      return strategies::PolicyKind::kSResume;
  }
  CHRONOS_EXPECTS(false, "unknown analytic strategy");
}

double expected_stage_makespan(int num_tasks, double t_min, double beta) {
  CHRONOS_EXPECTS(num_tasks >= 1, "num_tasks must be >= 1");
  CHRONOS_EXPECTS(t_min > 0.0 && beta > 1.0,
                  "makespan requires t_min > 0 and beta > 1");
  // E[max of N] for Pareto via the Beta-function identity
  // E[max] = t_min N B(N, 1 - 1/beta).
  // lgamma_r, not std::lgamma: this runs on parallel cell set-up threads,
  // and std::lgamma writes the global signgam.
  const double n = static_cast<double>(num_tasks);
  const double a = 1.0 - 1.0 / beta;
  int sign = 0;
  return t_min * std::exp(lgamma_r(n + 1.0, &sign) + lgamma_r(a, &sign) -
                          lgamma_r(n + a, &sign));
}

namespace {

/// critical_path_split into `deadlines`, reusing its storage and that of
/// `finish` (expected finish times, scratch). Each stage's expected
/// makespan is kept in `deadlines` until the critical path is known.
void split_into(const mapreduce::JobSpec& spec, std::vector<double>& deadlines,
                std::vector<double>& finish) {
  const int stages = spec.num_stages();
  if (stages == 1) {
    deadlines.assign(1, spec.deadline);
    return;
  }
  deadlines.resize(static_cast<std::size_t>(stages));
  finish.resize(static_cast<std::size_t>(stages));
  double longest = 0.0;
  for (int s = 0; s < stages; ++s) {
    const auto& st = spec.stage(s);
    const double span =
        expected_stage_makespan(st.num_tasks, st.t_min, st.beta);
    deadlines[static_cast<std::size_t>(s)] = span;
    // Stage indices are a topological order (deps reference earlier
    // stages), so one forward pass chains expected finish times.
    double start = 0.0;
    for (const int dep : spec.resolved_deps(s)) {
      start = std::max(start, finish[static_cast<std::size_t>(dep)]);
    }
    finish[static_cast<std::size_t>(s)] = start + span;
    longest = std::max(longest, finish[static_cast<std::size_t>(s)]);
  }
  for (double& deadline : deadlines) {
    deadline = spec.deadline * (deadline / longest);
  }
}

/// Feasibility floor: randomly sampled DAGs can be so deadline-tight that a
/// stage's proportional share drops below t_min + tau_est, which no valid
/// analytic JobParams can express. Clamp the share to that floor — the
/// stage is effectively infeasible either way, and the optimizer then
/// reports it as such instead of rejecting the parameters outright. A
/// single-stage job keeps its whole deadline as given.
void clamp_to_floor(std::vector<double>& deadlines,
                    const mapreduce::JobSpec& spec,
                    const PlannerConfig& config) {
  if (spec.num_stages() == 1) {
    return;
  }
  for (std::size_t s = 0; s < deadlines.size(); ++s) {
    const double floor = spec.stages[s].t_min *
                         (1.0 + config.tau_est_factor) * (1.0 + 1e-9);
    deadlines[s] = std::max(deadlines[s], floor);
  }
}

}  // namespace

std::vector<double> critical_path_split(const mapreduce::JobSpec& spec) {
  std::vector<double> deadlines;
  std::vector<double> finish;
  split_into(spec, deadlines, finish);
  return deadlines;
}

bool StagedPlan::feasible() const {
  return std::all_of(stages.begin(), stages.end(),
                     [](const core::OptimizationResult& result) {
                       return result.feasible;
                     });
}

void write_plan(mapreduce::JobSpec& spec, strategies::PolicyKind kind,
                std::span<const long long> r, const PlannerConfig& config,
                double price) {
  CHRONOS_EXPECTS(r.size() == spec.stages.size(), "one r per stage");
  const bool analytic = has_analytic_strategy(kind);
  spec.price = price;
  for (std::size_t s = 0; s < r.size(); ++s) {
    auto& st = spec.stages[s];
    st.tau_est = kind == strategies::PolicyKind::kClone
                     ? 0.0
                     : config.tau_est_factor * st.t_min;
    st.tau_kill = config.tau_kill_factor * st.t_min;
    st.r = analytic ? r[s] : 0;
  }
}

void plan_into(mapreduce::JobSpec& spec, bool auto_strategy,
               strategies::PolicyKind policy, const PlannerConfig& config,
               double price, StagedPlan& plan) {
  CHRONOS_EXPECTS(!spec.stages.empty(), "cannot plan a job with no stages");
  const std::size_t stages = spec.stages.size();
  plan.kind = policy;
  split_into(spec, plan.stage_deadlines, plan.finish_scratch);
  plan.stages.assign(stages, core::OptimizationResult{});
  plan.r.assign(stages, 0);
  std::size_t first = 0;  // first stage still to optimize
  if (auto_strategy) {
    // Choose on the root stage's (unclamped) critical-path view; one policy
    // then runs the whole job.
    const auto& root = spec.stages.front();
    const double deadline = plan.stage_deadlines.front();
    const auto best = core::optimize_all(
        stage_job_params(root, deadline, config,
                         core::Strategy::kSpeculativeResume),
        stage_economics(root, deadline, config, price), config.optimizer);
    plan.kind = policy_of(best.strategy);
    if (stages == 1) {
      plan.stages.front() = best.result;
      first = 1;
    }
  }
  clamp_to_floor(plan.stage_deadlines, spec, config);

  if (has_analytic_strategy(plan.kind)) {
    const core::Strategy strategy = analytic_strategy(plan.kind);
    for (std::size_t s = first; s < stages; ++s) {
      const auto& st = spec.stages[s];
      const double deadline = plan.stage_deadlines[s];
      plan.stages[s] = core::optimize(
          strategy, stage_job_params(st, deadline, config, strategy),
          stage_economics(st, deadline, config, price), config.optimizer);
    }
    for (std::size_t s = 0; s < stages; ++s) {
      const auto& result = plan.stages[s];
      plan.r[s] = result.feasible ? result.r_opt : 1;  // fall back to one copy
    }
  }
  write_plan(spec, plan.kind, plan.r, config, price);
}

StagedPlan plan_staged_spec(mapreduce::JobSpec& spec,
                            strategies::PolicyKind policy,
                            const PlannerConfig& config, double price) {
  StagedPlan plan;
  plan_into(spec, false, policy, config, price, plan);
  return plan;
}

StagedPlan plan_staged_job(TracedJob& job, strategies::PolicyKind policy,
                           const PlannerConfig& config,
                           const SpotPriceModel& prices) {
  return plan_staged_spec(job.spec, policy, config,
                          prices.price_at(job.submit_time));
}

void plan_trace(std::vector<TracedJob>& jobs, strategies::PolicyKind policy,
                const PlannerConfig& config, const SpotPriceModel& prices) {
  for (auto& job : jobs) {
    plan_staged_job(job, policy, config, prices);
  }
}

}  // namespace chronos::trace
