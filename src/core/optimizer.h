// Algorithm 1 — the unifying optimization algorithm of §V-B.
//
// Maximizes U(r) = lg(R(r) - R_min) - theta * C * E(T) over integer r >= 0.
// Phase 1 searches the provably concave region r >= ceil(Gamma) (Theorem 8);
// phase 2 scans the integers below ceil(Gamma) in ascending order.
// Theorem 9: the combination returns a global optimum.
//
// Both phases stop early. U is -infinity up to some r and concave after it
// (the lemma in optimizer.cpp), so phase 2 ends at the first strict descent,
// and phase 1 gallops through lo, lo+1, lo+3, lo+7, ... to the first descent
// and ternary-searches only the last bracket. A call costs O(r* + log r*)
// evaluations instead of ceil(Gamma) plus a search over [ceil(Gamma), max_r].
// Descents count only beyond the rounding error of both samples, and ties
// go to the lower r, as in brute_force_optimize.
#pragma once

#include <cstdint>

#include "core/analytic_context.h"
#include "core/model.h"
#include "core/utility.h"

namespace chronos::core {

struct OptimizerOptions {
  /// Upper bound on r explored by either phase. The objective decays like
  /// -theta*C*E(T) for large r, so the optimum is far below this.
  long long max_r = 4096;
};

struct OptimizationResult {
  long long r_opt = 0;       ///< optimal number of extra attempts
  UtilityPoint best;         ///< objective components at r_opt
  double gamma = 0.0;        ///< concavity threshold used (Theorem 8)
  std::int64_t evaluations = 0;  ///< number of UNIQUE U(r) evaluations
                                 ///< actually computed (memoized)
  std::int64_t lookups = 0;  ///< total objective queries, incl. memo hits
  bool feasible = false;     ///< true when U(r_opt) is finite
                             ///< (R(r_opt) > R_min is attainable)
};

/// Runs Algorithm 1 for `strategy`. Requires valid params/econ. When no
/// integer r in [0, max_r] achieves R(r) > R_min, the result has
/// feasible == false and r_opt == 0 with utility == -infinity.
///
/// Internally builds an AnalyticContext so every r-independent constant is
/// computed once, and memoizes U(r) so the gallop and the guarded ternary
/// search never evaluate the same integer twice.
OptimizationResult optimize(Strategy strategy, const JobParams& params,
                            const Economics& econ,
                            const OptimizerOptions& options = {});

/// As above, but evaluates through a caller-supplied context (lets callers
/// amortize the context across searches and instrument evaluation counts).
OptimizationResult optimize(const AnalyticContext& context,
                            const OptimizerOptions& options = {});

/// Reference implementation: linear scan of U(r) for r in [0, max_r].
/// Exponential-time-free but O(max_r); used to validate `optimize`.
OptimizationResult brute_force_optimize(Strategy strategy,
                                        const JobParams& params,
                                        const Economics& econ,
                                        const OptimizerOptions& options = {});

/// Runs `optimize` for all three strategies and returns the strategy/result
/// pair with the highest net utility. The strategy-independent constants
/// (straggler probability, truncated Pareto means) are computed once in a
/// SharedAnalytics and borrowed by every strategy's context, so the batched
/// search does strictly less r-independent work than three optimize() calls
/// while returning bit-identical results.
struct BestStrategy {
  Strategy strategy = Strategy::kClone;
  OptimizationResult result;
};
BestStrategy optimize_all(const JobParams& params, const Economics& econ,
                          const OptimizerOptions& options = {});

}  // namespace chronos::core
