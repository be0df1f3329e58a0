#include "trace/planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/error.h"

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
  params.phi_est = core::default_phi_est(params);
  return params;
}

core::Economics stage_economics(const mapreduce::StageSpec& stage,
                                double deadline, const PlannerConfig& config,
                                double price) {
  core::Economics econ;
  econ.price = price;
  econ.theta = config.theta;
  if (config.r_min_from_baseline) {
    core::JobParams baseline;
    baseline.num_tasks = stage.num_tasks;
    baseline.deadline = deadline;
    baseline.t_min = stage.t_min;
    baseline.beta = stage.beta;
    baseline.tau_est = 0.0;
    baseline.tau_kill = 0.0;
    baseline.phi_est = 0.0;
    econ.r_min = core::pocd_no_speculation(baseline);
  } else {
    econ.r_min = config.r_min;
  }
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

core::OptimizationResult plan_spec(mapreduce::JobSpec& spec,
                                   strategies::PolicyKind policy,
                                   const PlannerConfig& config, double price) {
  if (spec.num_stages() > 1) {
    return plan_staged_spec(spec, policy, config, price).stages.front();
  }
  spec.price = price;
  auto& st = spec.stage(0);

  if (!has_analytic_strategy(policy)) {
    st.r = 0;
    st.tau_est = config.tau_est_factor * st.t_min;
    st.tau_kill = config.tau_kill_factor * st.t_min;
    return core::OptimizationResult{};
  }

  const core::Strategy strategy = analytic_strategy(policy);
  const auto params = to_job_params(spec, config, strategy);
  const auto econ = to_economics(spec, config, spec.price);
  auto result = core::optimize(strategy, params, econ, config.optimizer);
  st.tau_est = params.tau_est;
  st.tau_kill = params.tau_kill;
  st.r = result.feasible ? result.r_opt : 1;  // fall back to one copy
  return result;
}

core::OptimizationResult plan_job(TracedJob& job,
                                  strategies::PolicyKind policy,
                                  const PlannerConfig& config,
                                  const SpotPriceModel& prices) {
  return plan_spec(job.spec, policy, config,
                   prices.price_at(job.submit_time));
}

void plan_trace(std::vector<TracedJob>& jobs, strategies::PolicyKind policy,
                const PlannerConfig& config, const SpotPriceModel& prices) {
  for (auto& job : jobs) {
    plan_job(job, policy, config, prices);
  }
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

std::vector<double> critical_path_split(const mapreduce::JobSpec& spec) {
  const int stages = spec.num_stages();
  std::vector<double> span(static_cast<std::size_t>(stages));
  std::vector<double> finish(static_cast<std::size_t>(stages));
  double longest = 0.0;
  for (int s = 0; s < stages; ++s) {
    const auto& st = spec.stage(s);
    span[static_cast<std::size_t>(s)] =
        expected_stage_makespan(st.num_tasks, st.t_min, st.beta);
    // Stage indices are a topological order (deps reference earlier
    // stages), so one forward pass chains expected finish times.
    double start = 0.0;
    for (const int dep : spec.resolved_deps(s)) {
      start = std::max(start, finish[static_cast<std::size_t>(dep)]);
    }
    finish[static_cast<std::size_t>(s)] =
        start + span[static_cast<std::size_t>(s)];
    longest = std::max(longest, finish[static_cast<std::size_t>(s)]);
  }
  std::vector<double> deadlines(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    deadlines[static_cast<std::size_t>(s)] =
        spec.deadline * (span[static_cast<std::size_t>(s)] / longest);
  }
  return deadlines;
}

namespace {

bool same_shape(const core::JobParams& a, const core::JobParams& b) {
  return a.num_tasks == b.num_tasks && a.deadline == b.deadline &&
         a.t_min == b.t_min && a.beta == b.beta && a.tau_est == b.tau_est &&
         a.tau_kill == b.tau_kill && a.phi_est == b.phi_est;
}

}  // namespace

StagedPlan plan_staged_spec(mapreduce::JobSpec& spec,
                            strategies::PolicyKind policy,
                            const PlannerConfig& config, double price) {
  StagedPlan plan;
  const int stages = spec.num_stages();
  if (stages == 1) {
    // Single-stage jobs take the historical path (the whole job deadline,
    // no split arithmetic) so existing map-only plans stay bit-identical.
    plan.stages.push_back(plan_spec(spec, policy, config, price));
    plan.stage_deadlines.push_back(spec.deadline);
    return plan;
  }
  spec.price = price;
  plan.stage_deadlines = critical_path_split(spec);
  // Feasibility floor: randomly sampled DAGs can be so deadline-tight that
  // a stage's proportional share drops below t_min + tau_est, which no
  // valid analytic JobParams can express. Clamp the share to that floor —
  // the stage is effectively infeasible either way, and the optimizer then
  // reports it as such instead of rejecting the parameters outright. The
  // floor depends only on t_min, so same-shape stages keep equal shares.
  for (int s = 0; s < stages; ++s) {
    const double floor = spec.stage(s).t_min *
                         (1.0 + config.tau_est_factor) * (1.0 + 1e-9);
    plan.stage_deadlines[static_cast<std::size_t>(s)] =
        std::max(plan.stage_deadlines[static_cast<std::size_t>(s)], floor);
  }
  plan.stages.resize(static_cast<std::size_t>(stages));

  if (!has_analytic_strategy(policy)) {
    for (auto& st : spec.stages) {
      st.r = 0;
      st.tau_est = config.tau_est_factor * st.t_min;
      st.tau_kill = config.tau_kill_factor * st.t_min;
    }
    return plan;
  }

  const core::Strategy strategy = analytic_strategy(policy);
  // One optimize() per stage (§III optimizes stage PoCDs separately). The
  // strategy-independent constants are shared across same-shape stages —
  // identical (num_tasks, t_min, beta) implies identical spans and hence
  // identical deadline shares, so their JobParams match bit-for-bit.
  std::vector<core::JobParams> params(static_cast<std::size_t>(stages));
  std::vector<std::unique_ptr<core::SharedAnalytics>> analytics(
      static_cast<std::size_t>(stages));
  std::vector<int> shape_of(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    params[static_cast<std::size_t>(s)] = stage_job_params(
        spec.stage(s), plan.stage_deadlines[static_cast<std::size_t>(s)],
        config, strategy);
    int owner = s;
    for (int q = 0; q < s; ++q) {
      if (same_shape(params[static_cast<std::size_t>(q)],
                     params[static_cast<std::size_t>(s)])) {
        owner = shape_of[static_cast<std::size_t>(q)];
        break;
      }
    }
    shape_of[static_cast<std::size_t>(s)] = owner;
    if (owner == s) {
      analytics[static_cast<std::size_t>(s)] =
          std::make_unique<core::SharedAnalytics>(
              params[static_cast<std::size_t>(s)]);
    }
  }
  for (int s = 0; s < stages; ++s) {
    auto& st = spec.stage(s);
    const auto econ = stage_economics(
        st, plan.stage_deadlines[static_cast<std::size_t>(s)], config,
        spec.price);
    const core::AnalyticContext context(
        strategy,
        *analytics[static_cast<std::size_t>(
            shape_of[static_cast<std::size_t>(s)])],
        econ);
    auto& result = plan.stages[static_cast<std::size_t>(s)];
    result = core::optimize(context, config.optimizer);
    st.tau_est = params[static_cast<std::size_t>(s)].tau_est;
    st.tau_kill = params[static_cast<std::size_t>(s)].tau_kill;
    st.r = result.feasible ? result.r_opt : 1;  // fall back to one copy
  }
  return plan;
}

StagedPlan plan_staged_job(TracedJob& job, strategies::PolicyKind policy,
                           const PlannerConfig& config,
                           const SpotPriceModel& prices) {
  return plan_staged_spec(job.spec, policy, config,
                          prices.price_at(job.submit_time));
}

}  // namespace chronos::trace
