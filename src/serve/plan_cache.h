// Quantized-key plan cache for the planning service (ROADMAP
// "planner-as-a-service" item).
//
// A plan is a pure function of the planning inputs (job shape, deadline,
// spot price, policy-or-auto) under a fixed PlannerConfig, so a
// long-running front-end can memoize it. The cache key is those inputs
// either bit-exact (kExact: a hit is only ever served for bit-identical
// inputs, so cached planning is byte-identical to uncached planning) or
// snapped to a geometric grid (kQuantized: continuous inputs within one
// relative bucket share a plan, trading optimality slack bounded by the
// grid width for hit rate).
//
// The table is a fixed-capacity open-addressed array of atomically
// published, immutable entries:
//
//   read    linear probe of acquire-loads; stops at the first empty slot
//           (entries are never deleted, so an empty slot proves absence
//           along the probe path). No locks, no reference counting.
//   insert  allocate the entry, CAS it into the first empty slot
//           (release). Losing a race to the same key drops the duplicate.
//   full    when the probe window is exhausted the insert is dropped and
//           the caller's freshly computed plan is simply not shared —
//           planning stays correct, only the hit rate suffers.
//
// Entries live until the cache is destroyed; there is no eviction and thus
// no reclamation problem for concurrent readers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "strategies/policies.h"

namespace chronos::serve {

enum class CacheMode {
  kOff,       ///< no caching: every request is planned from scratch
  kExact,     ///< keys compare bit-exact: hits are byte-identical plans
  kQuantized  ///< continuous key fields snapped to a geometric grid
};

/// Configuration of the plan cache attached to a PlannerService.
struct PlanCacheConfig {
  CacheMode mode = CacheMode::kOff;

  /// Relative bucket width for kQuantized: values x, y land in the same
  /// bucket when floor(log(x)/log1p(grid)) == floor(log(y)/log1p(grid)),
  /// i.e. buckets are powers of (1 + grid) and any two values in one
  /// bucket differ by less than a factor of (1 + grid).
  double grid = 0.0;

  /// Slot count, rounded up to a power of two. The cache never grows; once
  /// a probe window is full further distinct keys are planned uncached.
  std::size_t capacity = std::size_t{1} << 16;

  void validate() const;
};

/// Geometric bucket index of a positive finite value on a (1 + grid)
/// ratio grid. Non-positive / non-finite values (which the planner rejects
/// anyway) fall back to their bit pattern so distinct oddballs never
/// collide.
std::int64_t quantize_bucket(double value, double grid);

/// Stage budget of the fixed-width cache key. Jobs with more stages bypass
/// the cache entirely (planned from scratch per request) — DAGs beyond this
/// width are rare enough that caching them is not worth a variable-length
/// key on the lock-free read path.
inline constexpr int kMaxKeyStages = 4;

/// Per-stage slice of the cache key: the stage's shape fields (encoded like
/// the job-level continuous fields — bit patterns or bucket indices) plus
/// its resolved dependency set as a bitmask over earlier stages. Two specs
/// differing in ANY stage — shape or wiring — therefore never collide.
struct PlanStageKey {
  std::int64_t num_tasks = 0;
  std::int64_t t_min = 0;
  std::int64_t beta = 0;
  std::uint64_t deps = 0;  ///< bitmask of resolved predecessor stages

  friend bool operator==(const PlanStageKey&, const PlanStageKey&) = default;
};

/// Canonical cache key: the planning mode plus every request field the plan
/// depends on, encoded as integers (bit patterns in kExact mode, bucket
/// indices in kQuantized mode). The full stage vector is keyed — stage
/// slots past num_stages stay zero-initialized. PlannerConfig knobs (theta
/// among them) are deliberately absent: they are fixed for the lifetime of
/// a PlannerService.
struct PlanKey {
  std::uint64_t mode = 0;  ///< PolicyKind ordinal, or kAutoMode
  std::int64_t num_stages = 0;
  std::int64_t deadline = 0;
  std::int64_t price = 0;
  std::array<PlanStageKey, kMaxKeyStages> stages{};

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

/// PlanKey::mode value for auto-strategy (optimize_all) requests; fixed
/// policies use their PolicyKind ordinal (0..5).
inline constexpr std::uint64_t kAutoMode = 6;

/// FNV-1a over the key's canonical integer fields (all stage slots
/// included).
std::uint64_t hash_key(const PlanKey& key);

/// The cached decision: which policy runs the job and with how many extra
/// attempts per stage. Price and the tau timer fields are deliberately NOT
/// cached — they are recomputed per request from the request's own price
/// clock and the service's tau factors, so a cache hit can never serve a
/// stale spot price or another job's timers.
struct CachedPlan {
  strategies::PolicyKind kind = strategies::PolicyKind::kHadoopNS;
  std::int64_t num_stages = 1;
  /// Final per-stage extra-attempt counts (infeasible fallback folded in);
  /// slots past num_stages stay zero.
  std::array<long long, kMaxKeyStages> r{};
  bool feasible = false;  ///< every planned stage was feasible

  friend bool operator==(const CachedPlan&, const CachedPlan&) = default;
};

/// Fixed-capacity open-addressed hash table with lock-free reads and
/// CAS-published inserts (see file comment). Thread-safe for any mix of
/// concurrent find/insert callers.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Lock-free lookup; nullptr when absent. The returned pointer stays
  /// valid until the cache is destroyed.
  const CachedPlan* find(const PlanKey& key) const;

  /// Publishes `plan` under `key`. Returns false when the key was already
  /// present (another thread won the race) or the probe window around the
  /// key's hash is full; the cache is unchanged in either case.
  bool insert(const PlanKey& key, const CachedPlan& plan);

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Entry {
    PlanKey key;
    CachedPlan plan;
  };

  std::vector<std::atomic<Entry*>> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> size_{0};
};

}  // namespace chronos::serve
