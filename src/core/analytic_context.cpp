#include "core/analytic_context.h"

#include "common/error.h"
#include "core/cost.h"
#include "core/kernels.h"
#include "core/thresholds.h"
#include "stats/pareto.h"

namespace chronos::core {

AnalyticContext::AnalyticContext(Strategy strategy, const JobParams& params,
                                 const Economics& econ)
    : strategy_(strategy), params_(params), econ_(econ) {
  params_.validate();
  econ_.validate();
  p_straggle_ = kernels::straggler_probability(params_);
  // The truncated means are finite only for beta > 1; machine_time() rejects
  // the rest, so PoCD keeps its whole beta > 0 domain.
  const bool finite_mean = params_.beta > 1.0;
  switch (strategy_) {
    case Strategy::kClone:
      // Clone needs no further constants; its E(T) requires
      // beta * (r + 1) > 1, which is r-dependent and checked per call.
      break;
    case Strategy::kSpeculativeRestart:
      p_extra_ = kernels::s_restart_extra_failure(params_);
      if (finite_mean) {
        below_ = expected_time_below_deadline(params_);
        above_r0_ = stats::Pareto(params_.t_min, params_.beta)
                        .truncated_mean_above(params_.deadline);
      }
      break;
    case Strategy::kSpeculativeResume:
      p_extra_ = kernels::s_resume_extra_failure(params_);
      if (finite_mean) {
        below_ = expected_time_below_deadline(params_);
      }
      break;
  }
}

double AnalyticContext::gamma() const {
  return gamma_threshold(strategy_, params_);
}

double AnalyticContext::pocd(double r) const {
  CHRONOS_EXPECTS(r >= 0.0, "number of extra attempts r must be >= 0");
  double task_fail = 0.0;
  switch (strategy_) {
    case Strategy::kClone:
      task_fail = kernels::clone_task_failure(p_straggle_, r);
      break;
    case Strategy::kSpeculativeRestart:
      task_fail = kernels::s_restart_task_failure(p_straggle_, p_extra_, r);
      break;
    case Strategy::kSpeculativeResume:
      task_fail = kernels::s_resume_task_failure(p_straggle_, p_extra_, r);
      break;
  }
  return kernels::job_from_task(1.0 - task_fail, params_.num_tasks);
}

double AnalyticContext::machine_time(double r) const {
  CHRONOS_EXPECTS(r >= 0.0, "number of extra attempts r must be >= 0");
  switch (strategy_) {
    case Strategy::kClone:
      return kernels::clone_machine_time(params_, r);
    case Strategy::kSpeculativeRestart:
      CHRONOS_EXPECTS(params_.beta > 1.0,
                      "S-Restart machine time requires beta > 1");
      return kernels::s_restart_machine_time(params_, r, p_straggle_, below_,
                                             above_r0_);
    case Strategy::kSpeculativeResume:
      CHRONOS_EXPECTS(params_.beta > 1.0,
                      "S-Resume machine time requires beta > 1");
      return kernels::s_resume_machine_time(params_, r, p_straggle_, below_);
  }
  CHRONOS_ENSURES(false, "unknown strategy");
}

UtilityPoint AnalyticContext::evaluate(double r) const {
  ++evaluations_;
  UtilityPoint point;
  point.r = r;
  point.pocd = pocd(r);
  point.machine_time = machine_time(r);
  point.cost = econ_.price * point.machine_time;
  point.utility =
      utility_shaping(point.pocd - econ_.r_min) - econ_.theta * point.cost;
  return point;
}

}  // namespace chronos::core
