#include "serve/planner.h"

#include <bit>
#include <cstddef>
#include <span>

#include "common/error.h"
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

/// The decision a freshly planned spec carries, as the cache stores it.
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

PlannerService::PlannerService(PlannerServiceConfig config)
    : config_(config),
      cache_(config.cache.mode == CacheMode::kOff ? 1
                                                  : config.cache.capacity) {
  config_.cache.validate();
}

PlannerServiceStats PlannerService::stats() const {
  PlannerServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.inserts = inserts_.load(std::memory_order_relaxed);
  stats.drops = drops_.load(std::memory_order_relaxed);
  stats.cache_size = cache_.size();
  return stats;
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

void PlannerService::publish(const PlanKey& key, const CachedPlan& plan) {
  if (cache_.insert(key, plan)) {
    c_inserts.add();
    inserts_.fetch_add(1, std::memory_order_relaxed);
    g_size.update(cache_.size());
  } else {
    c_drops.add();
    drops_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanReply PlannerService::plan(const PlanRequest& request) {
  CHRONOS_EXPECTS(request.spec != nullptr, "plan request needs a spec");
  const obs::ScopedTimer timer(t_plan);
  c_requests.add();
  requests_.fetch_add(1, std::memory_order_relaxed);
  auto& spec = *request.spec;
  // The key is fixed-width: wider jobs always plan uncached, and count
  // neither a hit nor a miss.
  const bool cached = config_.cache.mode != CacheMode::kOff &&
                      spec.num_stages() <= kMaxKeyStages;
  PlanKey key;
  if (cached) {
    key = make_key(request);
    if (const CachedPlan* hit = cache_.find(key)) {
      c_hits.add();
      hits_.fetch_add(1, std::memory_order_relaxed);
      trace::write_plan(spec, hit->kind,
                        std::span(hit->r.data(), spec.stages.size()),
                        config_.planner, request.price);
      return {hit->kind, hit->r[0], hit->feasible, true};
    }
    c_misses.add();
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // One scratch plan per thread: its per-stage vectors keep their capacity
  // across requests, so planning allocates nothing per request.
  thread_local trace::StagedPlan plan;
  trace::plan_into(spec, request.auto_strategy, request.policy,
                   config_.planner, request.price, plan);
  if (cached) {
    publish(key, cached_plan(spec, plan));
  }
  return {plan.kind, spec.stage(0).r, plan.feasible(), false};
}

}  // namespace chronos::serve
