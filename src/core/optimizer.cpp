#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/kernels.h"
#include "core/thresholds.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronos::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;

/// Initial capacity of the dense memo: the ascending scans stop a few
/// points past r*, which is usually below ten.
constexpr std::size_t kDenseHint = 32;

// The memoized search already counts unique evaluations and total lookups
// per call (OptimizationResult); the registry exposes the process-wide
// totals so a long-running planner's workload is visible without plumbing
// every result somewhere.
const obs::Counter c_calls = obs::counter("core.optimizer.calls");
const obs::Counter c_evaluations = obs::counter("core.optimizer.evaluations");
const obs::Counter c_lookups = obs::counter("core.optimizer.lookups");

/// One memoized objective value with a bound on its rounding error.
struct Sample {
  double utility = kNegInf;
  double noise = kInf;
};

/// The memo's storage, kept per thread across optimize() calls so that a
/// search allocates only when it outgrows every earlier one on its thread.
/// At most one Objective uses it at a time: no search nests another.
struct MemoStorage {
  std::vector<Sample> dense;
  std::vector<std::pair<long long, Sample>> probes;
};

MemoStorage& thread_memo() {
  thread_local MemoStorage storage;
  return storage;
}

/// Memoizing objective over a precomputed AnalyticContext. The guarded
/// ternary search revisits probe points when the bracket shrinks; the memo
/// guarantees each distinct r is evaluated exactly once (evaluations()),
/// while lookups() counts every query including memo hits.
///
/// Two flat stores replace a hash map: `dense_` holds U(0 .. n-1), the
/// contiguous prefix that the ascending scans fill in order, and `probes_`
/// holds the few gallop and ternary-search points beyond it (searched
/// linearly). Both live in the thread's MemoStorage.
class Objective {
 public:
  Objective(const AnalyticContext& context, std::size_t dense_hint)
      : context_(context),
        pocd_noise_(kNoiseUlps * std::numeric_limits<double>::epsilon() *
                    context.params().num_tasks /
                    (1.0 - kernels::straggler_probability(context.params()))),
        dense_(thread_memo().dense),
        probes_(thread_memo().probes) {
    dense_.clear();
    probes_.clear();
    dense_.reserve(dense_hint);
    probes_.reserve(kProbeHint);
  }

  Sample operator()(long long r) {
    ++lookups_;
    if (r < static_cast<long long>(dense_.size())) {
      return dense_[static_cast<std::size_t>(r)];
    }
    for (const auto& [probe, sample] : probes_) {
      if (probe == r) {
        return sample;
      }
    }
    const auto point = context_.evaluate(static_cast<double>(r));
    const Sample sample{point.utility, noise(point)};
    if (r == static_cast<long long>(dense_.size())) {
      dense_.push_back(sample);
    } else {
      probes_.emplace_back(r, sample);
    }
    // Ties go to the lower r, as in brute_force_optimize's ascending scan.
    if (evaluations() == 1 || point.utility > best_.utility ||
        (point.utility == best_.utility && point.r < best_.r)) {
      best_ = point;
    }
    return sample;
  }

  /// A strict descent larger than the rounding error of either sample; by
  /// the lemma in optimize(), every r past it is strictly worse.
  static bool descends(const Sample& before, const Sample& after) {
    return after.utility < before.utility - (before.noise + after.noise);
  }

  /// The mirror image: a strict ascent beyond rounding error, or the first
  /// finite value after -infinity. The optimum lies past `before`.
  static bool climbs(const Sample& before, const Sample& after) {
    return before.utility == kNegInf
               ? after.utility > kNegInf
               : after.utility > before.utility + (before.noise + after.noise);
  }

  const UtilityPoint& best() const { return best_; }
  std::int64_t evaluations() const {
    return static_cast<std::int64_t>(dense_.size() + probes_.size());
  }
  std::int64_t lookups() const { return lookups_; }

 private:
  /// Enough for the gallop plus the ternary search in its bracket.
  static constexpr std::size_t kProbeHint = 32;
  /// Margin on the first-order error estimate below: pow, log10 and the
  /// cost products each add rounding of their own.
  static constexpr double kNoiseUlps = 16.0;

  /// Bound on the rounding error of `point.utility`. The task success
  /// 1 - y >= 1 - P(T > D) is rounded to an ulp, so the computed
  /// R = (1 - y)^N is off by about N ulps / (1 - y) relative, and
  /// log10(R - R_min) by that times R / (R - R_min): large when R_min sits
  /// just below R, and unbounded in the subnormal band R - R_min < DBL_MIN,
  /// where pow's underflow makes U step down and back up again. The log and
  /// cost terms themselves add a few ulps of their magnitudes.
  double noise(const UtilityPoint& point) const {
    const double margin = point.pocd - context_.econ().r_min;
    if (!(margin >= std::numeric_limits<double>::min())) {
      return kInf;
    }
    const double cost_term = context_.econ().theta * point.cost;
    const double log_term = point.utility + cost_term;
    return pocd_noise_ * point.pocd / (margin * std::numbers::ln10) +
           kNoiseUlps * std::numeric_limits<double>::epsilon() *
               (std::abs(log_term) + cost_term);
  }

  const AnalyticContext& context_;
  /// Relative rounding error bound of R: kNoiseUlps * N ulps / (1 - y),
  /// with 1 - y bounded below by 1 - P(T > D).
  const double pocd_noise_;
  std::vector<Sample>& dense_;
  std::vector<std::pair<long long, Sample>>& probes_;
  UtilityPoint best_{};
  std::int64_t lookups_ = 0;
};

OptimizationResult finish(const Objective& objective, double gamma) {
  OptimizationResult result;
  result.best = objective.best();
  result.r_opt = static_cast<long long>(std::llround(result.best.r));
  result.gamma = gamma;
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

// Why both phases may stop early. Every strategy's task failure has the form
// y(r) = c q^r with c, q in (0, 1], so R(r) = (1 - y)^N grows with r and
// log(R - R_min) is concave wherever R > R_min: with h = R - R_min,
// h'' h <= h'^2 reduces to (R - R_min)(N y - 1) <= N y R, which holds since
// R - R_min <= R and N y - 1 < N y. E(T) is convex in r for all three
// strategies. So U is -infinity up to some r and concave after it: past the
// first strict descent U(r) < U(r-1), every later r is strictly lower.
// Gamma remains a conservative bound that only decides where the scan hands
// over to the gallop. The computed U is concave only up to rounding, so a
// descent (or climb) counts only when it exceeds both samples' error bound.
OptimizationResult optimize(const AnalyticContext& context,
                            const OptimizerOptions& options) {
  CHRONOS_EXPECTS(options.max_r >= 0, "max_r must be >= 0");
  const long long max_r = options.max_r;
  const double gamma = context.gamma();
  const long long start = concave_start(gamma);
  const long long prefix_end = std::min(start, max_r + 1);
  Objective objective(context, kDenseHint);

  // Phase 2 of Algorithm 1 (run first here; order does not matter): scan
  // the prefix 0 .. ceil(Gamma)-1 in ascending order and stop at the first
  // descent beyond rounding error; the concave phase then has nothing left
  // to find.
  Sample previous;
  for (long long r = 0; r < prefix_end; ++r) {
    const Sample sample = objective(r);
    if (r > 0 && Objective::descends(previous, sample)) {
      return finish(objective, gamma);
    }
    previous = sample;
  }

  // Phase 1: the concave region [ceil(Gamma), max_r]. Gallop through
  // x_k = lo + 2^k - 1 until a step descends. The optimum then lies in
  // [x_j, x_k], where x_j -> x_{j+1} is the last step that climbed: x_{k-2}
  // unless rounding noise hid a step. A -infinity run (R(r) <= R_min)
  // never descends, so the gallop passes over it.
  long long lo = std::min(start, max_r);
  long long hi = lo;
  Sample at_hi = objective(hi);
  for (long long step = 1; hi < max_r; step *= 2) {
    const long long from = hi;
    const Sample before = at_hi;
    hi += std::min(step, max_r - hi);
    at_hi = objective(hi);
    if (Objective::descends(before, at_hi)) {
      break;
    }
    if (Objective::climbs(before, at_hi)) {
      lo = from;
    }
  }

  // Concavity makes U unimodal over the integers of the bracket, except
  // that a prefix of it may be -infinity; utility is increasing through
  // that prefix, so a guarded ternary search remains exact.
  while (hi - lo > 2) {
    const long long m1 = lo + (hi - lo) / 3;
    const long long m2 = hi - (hi - lo) / 3;
    const double f1 = objective(m1).utility;
    const double f2 = objective(m2).utility;
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

  return finish(objective, gamma);
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
  return finish(objective, context.gamma());
}

BestStrategy optimize_all(const JobParams& params, const Economics& econ,
                          const OptimizerOptions& options) {
  obs::TraceSpan span("core.optimize_all", "core");
  BestStrategy best;
  bool first = true;
  for (const Strategy strategy :
       {Strategy::kClone, Strategy::kSpeculativeRestart,
        Strategy::kSpeculativeResume}) {
    auto result = optimize(strategy, params, econ, options);
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
