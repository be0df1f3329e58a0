#include "serve/planner.h"

#include <bit>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/error.h"
#include "common/numeric.h"
#include "obs/metrics.h"

namespace chronos::serve {

namespace {

const obs::Counter c_requests = obs::counter("serve.requests");
const obs::Counter c_hits = obs::counter("serve.hits");
const obs::Counter c_misses = obs::counter("serve.misses");
const obs::Counter c_inserts = obs::counter("serve.inserts");
const obs::Counter c_drops = obs::counter("serve.drops");
const obs::Gauge g_size = obs::gauge("serve.size");
const obs::Timer t_plan = obs::timer("serve.plan");

/// The decision a freshly planned spec carries, as the memo stores it.
CachedPlan cached_plan(const mapreduce::JobSpec& spec,
                       const trace::StagedPlan& plan) {
  CachedPlan cached;
  cached.kind = plan.kind;
  cached.num_stages = spec.num_stages();
  for (int s = 0; s < spec.num_stages(); ++s) {
    cached.r[static_cast<std::size_t>(s)] = spec.stage(s).r;
  }
  cached.feasible = plan.feasible();
  return cached;
}

}  // namespace

void PlanCacheConfig::validate() const {
  if (mode == CacheMode::kQuantized) {
    CHRONOS_EXPECTS(std::isfinite(grid) && grid >= kMinQuantizeGrid,
                    "plan cache quantization grid must be finite and >= " +
                        numeric::format_double(kMinQuantizeGrid));
  }
}

std::int64_t quantize_bucket(double value, double grid) {
  if (value > 0.0 && std::isfinite(value)) {
    return static_cast<std::int64_t>(
        std::floor(std::log(value) / std::log1p(grid)));
  }
  // The bit patterns of positive finite doubles are exactly 1 through
  // 0x7FEF'FFFF'FFFF'FFFF, so this value's pattern lies outside that range.
  // Shifted down by 2^62 (mod 2^64), it lies outside [1 - 2^62, 2^62 - 2^52),
  // which holds every bucket index (below 2^50 in magnitude at any grid
  // validate() accepts).
  return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value) -
                                   (std::uint64_t{1} << 62));
}

std::uint64_t hash_key(const PlanKey& key) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(key.mode);
  mix(static_cast<std::uint64_t>(key.num_stages));
  mix(static_cast<std::uint64_t>(key.deadline));
  mix(static_cast<std::uint64_t>(key.price));
  for (const PlanStageKey& stage : key.stages) {
    mix(static_cast<std::uint64_t>(stage.num_tasks));
    mix(static_cast<std::uint64_t>(stage.t_min));
    mix(static_cast<std::uint64_t>(stage.beta));
    mix(stage.deps);
  }
  return hash;
}

PlannerService::PlannerService(PlannerServiceConfig config)
    : config_(config) {
  config_.cache.validate();
}

PlanKey PlannerService::make_key(const PlanRequest& request) const {
  const auto& spec = *request.spec;
  CHRONOS_EXPECTS(spec.num_stages() <= kMaxKeyStages,
                  "plan key holds at most kMaxKeyStages stages");
  PlanKey key;
  key.mode = request.auto_strategy
                 ? kAutoMode
                 : static_cast<std::uint64_t>(request.policy);
  key.num_stages = spec.num_stages();
  const bool quantized = config_.cache.mode == CacheMode::kQuantized;
  const double grid = config_.cache.grid;
  const auto encode = [&](double value) {
    return quantized ? quantize_bucket(value, grid)
                     : std::bit_cast<std::int64_t>(value);
  };
  key.deadline = encode(spec.deadline);
  key.price = encode(request.price);
  for (int s = 0; s < spec.num_stages(); ++s) {
    const auto& st = spec.stage(s);
    auto& slot = key.stages[static_cast<std::size_t>(s)];
    slot.num_tasks = st.num_tasks;
    slot.t_min = encode(st.t_min);
    slot.beta = encode(st.beta);
    for (const int dep : spec.resolved_deps(s)) {
      slot.deps |= std::uint64_t{1} << dep;
    }
  }
  return key;
}

PlanReply PlannerService::plan(const PlanRequest& request) {
  CHRONOS_EXPECTS(request.spec != nullptr, "plan request needs a spec");
  const obs::ScopedTimer timer(t_plan);
  c_requests.add();
  ++stats_.requests;
  auto& spec = *request.spec;
  // The key is fixed-width: wider jobs always plan uncached, and count
  // neither a hit nor a miss.
  const bool cached = config_.cache.mode != CacheMode::kOff &&
                      spec.num_stages() <= kMaxKeyStages;
  PlanKey key;
  if (cached) {
    key = make_key(request);
    if (const auto hit = memo_.find(key); hit != memo_.end()) {
      const CachedPlan& plan = hit->second;
      c_hits.add();
      ++stats_.hits;
      trace::write_plan(spec, plan.kind,
                        std::span(plan.r.data(), spec.stages.size()),
                        config_.planner, request.price);
      return {plan.kind, plan.r[0], plan.feasible, true};
    }
    c_misses.add();
    ++stats_.misses;
  }
  trace::plan_into(spec, request.auto_strategy, request.policy,
                   config_.planner, request.price, scratch_);
  if (cached) {
    if (memo_.size() < kMaxCachedPlans) {
      memo_.emplace(key, cached_plan(spec, scratch_));
      c_inserts.add();
      ++stats_.inserts;
      stats_.cache_size = memo_.size();
      g_size.update(memo_.size());
    } else {
      c_drops.add();
      ++stats_.drops;
    }
  }
  return {scratch_.kind, spec.stage(0).r, scratch_.feasible(), false};
}

}  // namespace chronos::serve
