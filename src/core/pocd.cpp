#include "core/pocd.h"

#include <cmath>

#include "core/analytic_context.h"
#include "core/kernels.h"

namespace chronos::core {

double pocd(Strategy strategy, const JobParams& params, double r) {
  return AnalyticContext(strategy, params).pocd(r);
}

double task_pocd(Strategy strategy, const JobParams& params, double r) {
  const double job = pocd(strategy, params, r);
  return std::pow(job, 1.0 / static_cast<double>(params.num_tasks));
}

double pocd_no_speculation(const JobParams& params) {
  params.validate();
  const double task_fail = kernels::straggler_probability(params);
  return kernels::job_from_task(1.0 - task_fail, params.num_tasks);
}

}  // namespace chronos::core
