// Per-run plan memo: Algorithm 1 behind a request boundary.
//
// A request is the paper's per-job planning problem — (beta, t_min, D,
// spot price, policy-or-auto) — and the reply is the plan: which policy
// runs the job and with how many extra attempts r. A plan is a pure
// function of those inputs under a fixed PlannerConfig, so the service
// memoizes it under a key whose continuous inputs are snapped to a
// geometric grid: inputs within one relative bucket share a plan, trading
// optimality slack bounded by the grid width for hit rate. A hit on
// bit-identical inputs replays the plan those inputs were planned to, so it
// is byte-identical to uncached planning.
//
// Measured traffic: quantized:0.05 served 109,517 of 172,061 requests on
// the perf ledger's open_auto_small at seed 1. Keys are always quantized:
// sampled continuous inputs never repeat bit for bit, so a key of raw bit
// patterns served 0 hits of 941 requests on the open_system grid.
//
// Every plan is computed by trace::plan_into and written by
// trace::write_plan, which recomputes the per-request fields (spot price,
// tau timers) on a hit too, so a hit can never leak another arrival's
// price clock. The PlannerConfig, theta included, is fixed at
// construction — a config change is a new service (and thus an empty memo).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "strategies/policies.h"
#include "trace/planner.h"

namespace chronos::serve {

/// Smallest nonzero plan-cache grid. Every finite positive double has
/// |ln x| <= 745, so at this grid its bucket index stays below 2^50 in
/// magnitude: inside the int64 range, and far from the keys of non-positive
/// and non-finite values (see quantize_bucket).
inline constexpr double kMinQuantizeGrid = 1e-12;

/// The memo's entry cap: past it, distinct keys are planned uncached, so a
/// long open run keeps bounded memory.
inline constexpr std::size_t kMaxCachedPlans = std::size_t{1} << 16;

/// Memo of a PlannerService.
struct PlanCacheConfig {
  /// Relative bucket width of the key's continuous fields; 0 turns the memo
  /// off, so every request is planned from scratch. Values x, y land in the
  /// same bucket when floor(log(x)/log1p(grid)) ==
  /// floor(log(y)/log1p(grid)), i.e. buckets are powers of (1 + grid) and
  /// any two values in one bucket differ by less than a factor of
  /// (1 + grid). Otherwise at least kMinQuantizeGrid.
  double grid = 0.0;

  bool enabled() const { return grid != 0.0; }
  void validate() const;
};

/// Quantized key of a value on a (1 + grid) ratio grid: the geometric bucket
/// index of a positive finite value. Any other value (zero, negative,
/// infinite, NaN) keys as its bit pattern moved out of the range bucket
/// indices occupy, so it never shares a key with a bucket or with another
/// such value. Requires grid >= kMinQuantizeGrid.
std::int64_t quantize_bucket(double value, double grid);

/// Canonical key: one byte string of words holding the planning mode plus
/// every request field the plan depends on — stage count, deadline and
/// price, then per stage num_tasks, t_min, beta, the number of resolved
/// deps and those deps in ascending order. Continuous fields are
/// quantize_bucket indices. Each word is a zigzag varint (7 bits a byte,
/// high bit set on all but the last byte), so small words take one byte and
/// a single-stage key, about 12 bytes, fits std::string's inline buffer. Varints are
/// self-delimiting and the stage and dep counts make the word sequence
/// unambiguous, so two specs differing in any stage — shape or wiring —
/// never share a key, at any width. PlannerConfig knobs (theta among them)
/// are deliberately absent: they are fixed for the lifetime of a
/// PlannerService.
using PlanKey = std::string;

/// Mode word of the key for auto-strategy (optimize_all) requests; fixed
/// policies use their PolicyKind ordinal (0..5).
inline constexpr std::uint64_t kAutoMode = 6;

/// The memoized decision: which policy runs the job and with how many extra
/// attempts per stage. Price and the tau timer fields are deliberately NOT
/// memoized — they are recomputed per request from the request's own price
/// clock and the service's tau factors, so a hit can never serve a stale
/// spot price or another job's timers.
struct CachedPlan {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  /// Final per-stage extra-attempt counts (infeasible fallback folded in).
  std::vector<long long> r;
  bool feasible = false;  ///< every planned stage was feasible
};

/// Everything a PlannerService holds fixed across requests.
struct PlannerServiceConfig {
  trace::PlannerConfig planner;
  PlanCacheConfig cache;
};

/// One planning request. `spec` supplies the job shape (the stage vector
/// plus deadline) and receives the plan (price, and per stage tau_est /
/// tau_kill / r). Staged jobs of any width are memoized like single-stage
/// ones: the key covers the full stage vector.
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
  std::uint64_t drops = 0;  ///< a miss not memoized: the memo was full
  std::size_t cache_size = 0;
};

class PlannerService {
 public:
  explicit PlannerService(PlannerServiceConfig config);

  /// Plans one request in place: fills spec.price / tau_est / tau_kill / r
  /// and returns the decision. With the memo off and on a miss, this is
  /// trace::plan_into on the request's spec; a miss then memoizes the plan
  /// it wrote while the memo holds fewer than kMaxCachedPlans entries. A
  /// hit on bit-identical inputs replays the plan computed from them and is
  /// therefore byte-identical too.
  PlanReply plan(const PlanRequest& request);

  const PlannerServiceConfig& config() const { return config_; }
  PlannerServiceStats stats() const { return stats_; }

  /// The key a request would be filed under (exposed for tests of the
  /// quantization-boundary behavior and of stage keying). Requires the
  /// memo on.
  PlanKey make_key(const PlanRequest& request) const;

 private:
  /// Hashes keys and their views alike, so a lookup by std::string_view
  /// builds no PlanKey.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  /// Writes the request's key into `key`, replacing its contents.
  void encode_key(const PlanRequest& request, PlanKey& key) const;

  PlannerServiceConfig config_;
  std::unordered_map<PlanKey, CachedPlan, KeyHash, std::equal_to<>> memo_;
  /// The current request's key; its storage is reused across requests, so
  /// a memo hit allocates nothing.
  PlanKey key_;
  PlannerServiceStats stats_;
  /// Scratch plan: its per-stage vectors keep their storage across
  /// requests, so plan_into allocates nothing per request.
  trace::StagedPlan scratch_;
};

}  // namespace chronos::serve
