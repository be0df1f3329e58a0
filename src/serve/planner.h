// Planner-as-a-service: Algorithm 1 behind a request boundary (ROADMAP
// "planner-as-a-service" item; the nimbus controller/worker split is the
// exemplar shape — the planning brain is separate from execution even
// while transport stays in-process).
//
// A request is the paper's per-job planning problem — (beta, t_min, D,
// spot price, policy-or-auto) — and the reply is the plan: which policy
// runs the job and with how many extra attempts r. The service memoizes
// plans in a PlanCache (exact or quantized keys; see plan_cache.h). Every
// plan is computed by trace::plan_into and written by trace::write_plan,
// which recomputes the per-request fields (spot price, tau timers) on a
// cache hit too, so a hit can never leak another arrival's price clock.
//
// Thread safety: plan() may be called concurrently from any number of
// threads (lock-free cache reads, CAS-published inserts, relaxed stat
// counters). The PlannerConfig, theta included, is fixed at construction —
// a config change is a new service (and thus an empty cache).
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/plan_cache.h"
#include "trace/planner.h"

namespace chronos::serve {

/// Everything a PlannerService holds fixed across requests.
struct PlannerServiceConfig {
  trace::PlannerConfig planner;
  PlanCacheConfig cache;
};

/// One planning request. `spec` supplies the job shape (the stage vector
/// plus deadline) and receives the plan (price, and per stage tau_est /
/// tau_kill / r). Staged jobs up to serve::kMaxKeyStages stages are cached
/// like single-stage ones (the key covers the full stage vector); wider
/// DAGs are planned from scratch on every request.
struct PlanRequest {
  mapreduce::JobSpec* spec = nullptr;

  /// Spot price on the caller's clock — for an open-system arrival, the
  /// price at the arrival time, never trace-generation or retry time.
  double price = 1.0;

  /// On: pick the best of Clone / S-Restart / S-Resume via optimize_all.
  /// Off: plan under `policy`.
  bool auto_strategy = false;
  strategies::PolicyKind policy = strategies::PolicyKind::kSResume;
};

struct PlanReply {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  long long r = 0;  ///< stage-0 extra attempts (full plan is in the spec)
  bool feasible = false;
  bool cache_hit = false;
};

/// Monotone service counters (also exported as serve.* obs metrics).
struct PlannerServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t drops = 0;  ///< insert lost a race or the table was full
  std::size_t cache_size = 0;
};

class PlannerService {
 public:
  explicit PlannerService(PlannerServiceConfig config);

  /// Plans one request in place: fills spec.price / tau_est / tau_kill / r
  /// and returns the decision. Uncached (cache off, or a job wider than
  /// kMaxKeyStages) and on a miss, this is trace::plan_into on the
  /// request's spec; a miss then publishes the plan it wrote. An exact-mode
  /// hit replays a plan computed from bit-identical inputs and is therefore
  /// byte-identical too.
  PlanReply plan(const PlanRequest& request);

  const PlannerServiceConfig& config() const { return config_; }
  PlannerServiceStats stats() const;

  /// The cache key a request would be filed under (exposed for tests of
  /// the quantization-boundary behavior). Requires the spec to have at most
  /// kMaxKeyStages stages.
  PlanKey make_key(const PlanRequest& request) const;

 private:
  /// Inserts into the cache, counting the insert or the drop.
  void publish(const PlanKey& key, const CachedPlan& plan);

  PlannerServiceConfig config_;
  PlanCache cache_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> drops_{0};
};

}  // namespace chronos::serve
