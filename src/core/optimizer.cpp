#include "core/optimizer.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/thresholds.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronos::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The memoized search already counts unique evaluations and total lookups
// per call (OptimizationResult); the registry exposes the process-wide
// totals so a long-running planner's workload is visible without plumbing
// every result somewhere.
const obs::Counter c_calls = obs::counter("core.optimizer.calls");
const obs::Counter c_evaluations = obs::counter("core.optimizer.evaluations");
const obs::Counter c_lookups = obs::counter("core.optimizer.lookups");

/// Memoizing objective over a precomputed AnalyticContext. The guarded
/// ternary search revisits probe points when the bracket shrinks; the memo
/// guarantees each distinct r is evaluated exactly once (evaluations()),
/// while lookups() counts every query including memo hits.
///
/// Two flat stores replace a hash map: `dense_` holds U(0 .. n-1), the
/// contiguous prefix that the exhaustive scan (and the brute-force scan)
/// fills in ascending order, and `probes_` holds the few ternary-search
/// points beyond it (about 2 log_{3/2}(max_r), searched linearly).
class Objective {
 public:
  Objective(const AnalyticContext& context, std::size_t dense_hint)
      : context_(context) {
    dense_.reserve(dense_hint);
    probes_.reserve(kProbeHint);
  }

  double operator()(long long r) {
    ++lookups_;
    if (r < static_cast<long long>(dense_.size())) {
      return dense_[static_cast<std::size_t>(r)];
    }
    for (const auto& [probe, utility] : probes_) {
      if (probe == r) {
        return utility;
      }
    }
    const auto point = context_.evaluate(static_cast<double>(r));
    if (r == static_cast<long long>(dense_.size())) {
      dense_.push_back(point.utility);
    } else {
      probes_.emplace_back(r, point.utility);
    }
    if (evaluations() == 1 || point.utility > best_.utility) {
      best_ = point;
    }
    return point.utility;
  }

  const UtilityPoint& best() const { return best_; }
  std::int64_t evaluations() const {
    return static_cast<std::int64_t>(dense_.size() + probes_.size());
  }
  std::int64_t lookups() const { return lookups_; }

 private:
  /// Enough for the ternary search at the default max_r (4096).
  static constexpr std::size_t kProbeHint = 48;

  const AnalyticContext& context_;
  std::vector<double> dense_;
  std::vector<std::pair<long long, double>> probes_;
  UtilityPoint best_{};
  std::int64_t lookups_ = 0;
};

OptimizationResult finish(const Objective& objective,
                          const AnalyticContext& context) {
  OptimizationResult result;
  result.best = objective.best();
  result.r_opt = static_cast<long long>(std::llround(result.best.r));
  result.gamma = context.gamma();
  result.evaluations = objective.evaluations();
  result.lookups = objective.lookups();
  result.feasible = std::isfinite(result.best.utility);
  if (!result.feasible) {
    result.r_opt = 0;
  }
  c_calls.add();
  c_evaluations.add(static_cast<std::uint64_t>(result.evaluations));
  c_lookups.add(static_cast<std::uint64_t>(result.lookups));
  return result;
}

}  // namespace

OptimizationResult optimize(const AnalyticContext& context,
                            const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");

  const long long start = concave_start(context.gamma());
  Objective objective(context, static_cast<std::size_t>(
                                   std::min(start, options.max_r + 1)));

  // Phase 2 of Algorithm 1 (run first here; order does not matter): the
  // non-concave prefix 0 .. ceil(Gamma)-1 is scanned exhaustively.
  for (long long r = 0; r < std::min(start, options.max_r + 1); ++r) {
    objective(r);
  }

  // Phase 1: the concave region [ceil(Gamma), max_r]. Concavity makes U
  // unimodal over the integers, except that a prefix of the region may be
  // -infinity (R(r) <= R_min); utility is increasing through that prefix,
  // so a guarded ternary search remains exact.
  long long lo = std::min(start, options.max_r);
  long long hi = options.max_r;
  while (hi - lo > 2) {
    const long long m1 = lo + (hi - lo) / 3;
    const long long m2 = hi - (hi - lo) / 3;
    const double f1 = objective(m1);
    const double f2 = objective(m2);
    if (f1 == kNegInf && f2 == kNegInf) {
      // Still inside the infeasible prefix where U is -inf; the optimum (if
      // any) lies to the right of m2.
      lo = m2 + 1;
    } else if (f1 < f2) {
      lo = m1 + 1;
    } else {
      hi = m2 - 1;
    }
  }
  for (long long r = lo; r <= hi; ++r) {
    objective(r);
  }

  return finish(objective, context);
}

OptimizationResult optimize(Strategy strategy, const JobParams& params,
                            const Economics& econ,
                            const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");
  const AnalyticContext context(strategy, params, econ);
  return optimize(context, options);
}

OptimizationResult brute_force_optimize(Strategy strategy,
                                        const JobParams& params,
                                        const Economics& econ,
                                        const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");
  const AnalyticContext context(strategy, params, econ);
  Objective objective(context, static_cast<std::size_t>(options.max_r + 1));
  for (long long r = 0; r <= options.max_r; ++r) {
    objective(r);
  }
  return finish(objective, context);
}

BestStrategy optimize_all(const JobParams& params, const Economics& econ,
                          const OptimizerOptions& options) {
  obs::TraceSpan span("core.optimize_all", "core");
  // One SharedAnalytics instance computes the constants every strategy's
  // context needs (P(T > D) and the truncated Pareto means) exactly once;
  // the three contexts borrow them instead of recomputing per strategy.
  const SharedAnalytics shared(params);
  BestStrategy best;
  bool first = true;
  for (const Strategy strategy :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    const AnalyticContext context(strategy, shared, econ);
    auto result = optimize(context, options);
    if (first || result.best.utility > best.result.best.utility) {
      best.strategy = strategy;
      best.result = result;
      first = false;
    }
  }
  span.note("r_opt", static_cast<double>(best.result.r_opt));
  span.note("evaluations", static_cast<double>(best.result.evaluations));
  return best;
}

}  // namespace chronos::core
