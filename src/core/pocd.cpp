#include "core/pocd.h"

#include "core/analytic_context.h"
#include "core/kernels.h"

namespace chronos::core {

double pocd(Strategy strategy, const JobParams& params, double r) {
  return AnalyticContext(strategy, params).pocd(r);
}

double pocd_no_speculation(const JobParams& params) {
  params.validate();
  const double task_fail = kernels::straggler_probability(params);
  return kernels::job_from_task(1.0 - task_fail, params.num_tasks);
}

}  // namespace chronos::core
