#include "serve/planner.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string_view>

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

/// quantize_bucket with log1p(grid) given as `log_ratio`, so a key of
/// several values takes that logarithm once; the same bits either way.
std::int64_t bucket_on_log_grid(double value, double log_ratio) {
  if (value > 0.0 && std::isfinite(value)) {
    return static_cast<std::int64_t>(std::floor(std::log(value) / log_ratio));
  }
  // The bit patterns of positive finite doubles are exactly 1 through
  // 0x7FEF'FFFF'FFFF'FFFF, so this value's pattern lies outside that range.
  // Shifted down by 2^62 (mod 2^64), it lies outside [1 - 2^62, 2^62 - 2^52),
  // which holds every bucket index (below 2^50 in magnitude at any grid
  // validate() accepts).
  return static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value) -
                                   (std::uint64_t{1} << 62));
}

}  // namespace

void PlanCacheConfig::validate() const {
  CHRONOS_EXPECTS(
      !enabled() || (std::isfinite(grid) && grid >= kMinQuantizeGrid),
      "plan cache grid must be 0 (off) or finite and >= " +
          numeric::format_double(kMinQuantizeGrid));
}

std::int64_t quantize_bucket(double value, double grid) {
  return bucket_on_log_grid(value, std::log1p(grid));
}

PlannerService::PlannerService(PlannerServiceConfig config)
    : config_(config) {
  config_.cache.validate();
  if (config_.cache.enabled()) {
    // The memo never outgrows its cap, so it never rehashes.
    memo_.reserve(kMaxCachedPlans);
  }
}

PlanKey PlannerService::make_key(const PlanRequest& request) const {
  CHRONOS_EXPECTS(config_.cache.enabled(), "plan keys need a nonzero grid");
  PlanKey key;
  encode_key(request, key);
  return key;
}

void PlannerService::encode_key(const PlanRequest& request,
                                PlanKey& key) const {
  const auto& spec = *request.spec;
  const double log_ratio = std::log1p(config_.cache.grid);
  key.clear();
  const auto word = [&key](std::int64_t value) {
    // Zigzag maps small magnitudes of either sign to small codes.
    auto code = (static_cast<std::uint64_t>(value) << 1) ^
                static_cast<std::uint64_t>(value >> 63);
    for (; code >= 0x80; code >>= 7) {
      key.push_back(static_cast<char>(code | 0x80));
    }
    key.push_back(static_cast<char>(code));
  };
  const auto encode = [&](double value) {
    word(bucket_on_log_grid(value, log_ratio));
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
    const auto deps = spec.resolved_deps(s);
    word(static_cast<std::int64_t>(deps.size()));
    // Ascending without a sorted copy: each pass takes the least dep above
    // the last one written. Deps never repeat (JobSpec::validate), and a
    // stage has few of them.
    int last = -1;
    for (std::size_t i = 0; i < deps.size(); ++i) {
      int next = std::numeric_limits<int>::max();
      for (const int dep : deps) {
        if (dep > last && dep < next) {
          next = dep;
        }
      }
      word(next);
      last = next;
    }
  }
}

PlanReply PlannerService::plan(const PlanRequest& request) {
  CHRONOS_EXPECTS(request.spec != nullptr, "plan request needs a spec");
  const obs::ScopedTimer timer(t_plan);
  c_requests.add();
  ++stats_.requests;
  auto& spec = *request.spec;
  const bool cached = config_.cache.enabled();
  if (cached) {
    encode_key(request, key_);
    if (const auto hit = memo_.find(std::string_view(key_));
        hit != memo_.end()) {
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
      memo_.emplace(key_, cached_plan(spec, scratch_));
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
