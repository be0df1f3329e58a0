// Umbrella header for the Chronos analytic core — the paper's primary
// contribution.
//
// Quick use:
//   chronos::core::JobParams job{.num_tasks = 10, .deadline = 100,
//                                .t_min = 20, .beta = 1.5,
//                                .tau_est = 40, .tau_kill = 80,
//                                .phi_est = 0.2};
//   chronos::core::Economics econ{.price = 0.05, .theta = 1e-4,
//                                 .r_min = 0.5};
//   auto best = chronos::core::optimize(
//       chronos::core::Strategy::kSpeculativeResume, job, econ);
//   // best.r_opt extra attempts maximize lg(PoCD - R_min) - theta*C*E(T).
#pragma once

#include "core/analytic_context.h"  // IWYU pragma: export
#include "core/comparison.h"   // IWYU pragma: export
#include "core/cost.h"         // IWYU pragma: export
#include "core/model.h"        // IWYU pragma: export
#include "core/optimizer.h"    // IWYU pragma: export
#include "core/pocd.h"         // IWYU pragma: export
#include "core/thresholds.h"   // IWYU pragma: export
#include "core/utility.h"      // IWYU pragma: export
