#include "serve/planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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
  for (const auto& stage : spec.stages) {
    cached.r.push_back(stage.r);
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

PlannerService::PlannerService(PlannerServiceConfig config)
    : config_(config) {
  config_.cache.validate();
}

PlanKey PlannerService::make_key(const PlanRequest& request) const {
  const auto& spec = *request.spec;
  const bool quantized = config_.cache.mode == CacheMode::kQuantized;
  const double grid = config_.cache.grid;
  PlanKey key;
  // Sized for a chain (one dep a stage); wider fan-ins regrow.
  key.reserve(sizeof(std::int64_t) * (4 + 5 * spec.stages.size()));
  const auto word = [&key](std::int64_t value) {
    key.append(reinterpret_cast<const char*>(&value), sizeof value);
  };
  const auto encode = [&](double value) {
    word(quantized ? quantize_bucket(value, grid)
                   : std::bit_cast<std::int64_t>(value));
  };
  word(request.auto_strategy ? static_cast<std::int64_t>(kAutoMode)
                             : static_cast<std::int64_t>(request.policy));
  word(spec.num_stages());
  encode(spec.deadline);
  encode(request.price);
  for (int s = 0; s < spec.num_stages(); ++s) {
    const auto& st = spec.stage(s);
    word(st.num_tasks);
    encode(st.t_min);
    encode(st.beta);
    auto deps = spec.resolved_deps(s);
    std::sort(deps.begin(), deps.end());
    word(static_cast<std::int64_t>(deps.size()));
    for (const int dep : deps) {
      word(dep);
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
  const bool cached = config_.cache.mode != CacheMode::kOff;
  PlanKey key;
  if (cached) {
    key = make_key(request);
    if (const auto hit = memo_.find(key); hit != memo_.end()) {
      const CachedPlan& plan = hit->second;
      c_hits.add();
      ++stats_.hits;
      trace::write_plan(spec, plan.kind, plan.r, config_.planner,
                        request.price);
      return {plan.kind, plan.r[0], plan.feasible, true};
    }
    c_misses.add();
    ++stats_.misses;
  }
  trace::plan_into(spec, request.auto_strategy, request.policy,
                   config_.planner, request.price, scratch_);
  if (cached) {
    if (memo_.size() < kMaxCachedPlans) {
      memo_.emplace(std::move(key), cached_plan(spec, scratch_));
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
