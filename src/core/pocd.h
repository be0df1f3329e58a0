// Probability of Completion before Deadline (PoCD) — Theorems 1, 3 and 5
// of the paper, evaluated by AnalyticContext (core/analytic_context.h); the
// formulas are documented at their kernels in core/kernels.h.
//
// All functions accept a real-valued r so the optimizer can run its
// continuous line-search phase; integer r gives the paper's quantities.
#pragma once

#include "core/model.h"

namespace chronos::core {

/// PoCD of `strategy` with r extra attempts. Requires r >= 0 and valid
/// params; defined for every beta > 0.
double pocd(Strategy strategy, const JobParams& params, double r);

/// PoCD of default Hadoop with no speculation: every task has a single
/// attempt, so R = [1 - (t_min/D)^beta]^N. Used as R_min in the evaluation.
double pocd_no_speculation(const JobParams& params);

}  // namespace chronos::core
