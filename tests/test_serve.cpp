// Planner service and its plan memo (src/serve/).
//
// The load-bearing properties: a hit on bit-identical inputs is
// bit-identical to uncached planning (the per-request fields — price, tau
// timers — are recomputed, never memoized), keys bucket on the geometric
// grid exactly where quantize_bucket says they do and never alias a
// non-positive value with a bucket, jobs of any width are memoized under a key of their stage shapes
// and dependency sets, auto mode plans staged jobs exactly as the root-view
// choice plus trace::plan_staged_spec does, and a full memo still plans
// every request correctly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>

#include "common/error.h"
#include "core/optimizer.h"
#include "serve/planner.h"
#include "trace/planner.h"

namespace chronos {
namespace {

using serve::PlanCacheConfig;
using serve::PlannerService;
using serve::PlannerServiceConfig;
using serve::PlanReply;
using serve::PlanRequest;

mapreduce::JobSpec make_spec(int num_tasks, double t_min, double beta,
                             double deadline) {
  mapreduce::JobSpec spec;
  spec.stage(0).num_tasks = num_tasks;
  spec.stage(0).t_min = t_min;
  spec.stage(0).beta = beta;
  spec.deadline = deadline;
  return spec;
}

/// The grid the committed open-system workloads cache at (quantized:0.05).
constexpr double kGrid = 0.05;

PlannerServiceConfig service_config(double grid) {
  PlannerServiceConfig config;
  config.cache.grid = grid;
  return config;
}

PlanRequest request_for(mapreduce::JobSpec& spec, double price,
                        bool auto_strategy,
                        strategies::PolicyKind policy) {
  PlanRequest request;
  request.spec = &spec;
  request.price = price;
  request.auto_strategy = auto_strategy;
  request.policy = policy;
  return request;
}

/// Bitwise equality of every field the planner writes, on every stage.
void expect_same_plan(const mapreduce::JobSpec& a,
                      const mapreduce::JobSpec& b) {
  EXPECT_EQ(a.price, b.price);
  ASSERT_EQ(a.num_stages(), b.num_stages());
  for (int s = 0; s < a.num_stages(); ++s) {
    EXPECT_EQ(a.stage(s).tau_est, b.stage(s).tau_est) << "stage " << s;
    EXPECT_EQ(a.stage(s).tau_kill, b.stage(s).tau_kill) << "stage " << s;
    EXPECT_EQ(a.stage(s).r, b.stage(s).r) << "stage " << s;
  }
}

// --- repeated inputs: bit identity with uncached planning --------------------

TEST(PlannerService, RepeatHitsAreBitIdenticalToPlanSpec) {
  // A grid of shapes, each in its own bucket, planned twice through a
  // caching service: the second pass must be all hits and every planned
  // field must equal what the uncached trace::plan_staged_spec path
  // computes, bit for bit.
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  for (const auto policy :
       {strategies::PolicyKind::kSResume, strategies::PolicyKind::kSRestart,
        strategies::PolicyKind::kClone, strategies::PolicyKind::kHadoopNS}) {
    for (const double t_min : {20.0, 35.0}) {
      for (const double price : {0.3, 0.7}) {
        auto cold = make_spec(50, t_min, 1.8, 6.0 * t_min);
        auto warm = cold;
        auto reference = cold;

        const PlanReply first =
            service.plan(request_for(cold, price, false, policy));
        EXPECT_FALSE(first.cache_hit);
        const PlanReply second =
            service.plan(request_for(warm, price, false, policy));
        EXPECT_TRUE(second.cache_hit);

        trace::plan_staged_spec(reference, policy, planner, price);
        expect_same_plan(cold, reference);
        expect_same_plan(warm, reference);
        EXPECT_EQ(first.r, second.r);
        EXPECT_EQ(first.kind, second.kind);
      }
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.hits, stats.misses);
  EXPECT_EQ(stats.inserts, stats.misses);
  EXPECT_EQ(stats.drops, 0u);
}

TEST(PlannerService, AutoModeMatchesOptimizeAll) {
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  auto spec = make_spec(80, 30.0, 1.6, 200.0);
  const double price = 0.45;

  const auto params = trace::to_job_params(
      spec, planner, core::Strategy::kSpeculativeResume);
  const auto econ = trace::to_economics(spec, planner, price);
  const auto best = core::optimize_all(params, econ, planner.optimizer);

  auto cold = spec;
  const PlanReply miss = service.plan(request_for(cold, price, true,
                                                  strategies::PolicyKind::kSResume));
  auto warm = spec;
  const PlanReply hit = service.plan(request_for(warm, price, true,
                                                 strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  for (const PlanReply& reply : {miss, hit}) {
    EXPECT_EQ(reply.kind, trace::policy_of(best.strategy));
    EXPECT_EQ(reply.r, best.result.feasible ? best.result.r_opt : 1);
    EXPECT_EQ(reply.feasible, best.result.feasible);
  }
  expect_same_plan(cold, warm);
  EXPECT_EQ(cold.stage(0).r, best.result.feasible ? best.result.r_opt : 1);
  EXPECT_EQ(cold.stage(0).tau_kill, params.tau_kill);
  EXPECT_EQ(cold.stage(0).tau_est, best.strategy == core::Strategy::kClone
                                       ? 0.0
                                       : params.tau_est);
}

TEST(PlannerService, OffModeNeverCaches) {
  PlannerService service(service_config(0.0));
  auto spec = make_spec(40, 25.0, 2.0, 120.0);
  for (int i = 0; i < 3; ++i) {
    auto copy = spec;
    const PlanReply reply = service.plan(
        request_for(copy, 0.5, false, strategies::PolicyKind::kSResume));
    EXPECT_FALSE(reply.cache_hit);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.cache_size, 0u);
  // With the memo off there is no key to file a request under.
  EXPECT_THROW(service.make_key(request_for(
                   spec, 0.5, false, strategies::PolicyKind::kSResume)),
               PreconditionError);
}

TEST(PlannerService, RejectsAJobWithNoStages) {
  // JobSpec::validate rejects a stageless spec at submit; planning must not
  // read stage 0 of it first. Both entry points, cached and uncached.
  for (const double grid : {0.0, kGrid}) {
    PlannerService service(service_config(grid));
    for (const bool auto_strategy : {false, true}) {
      auto spec = make_spec(40, 25.0, 2.0, 120.0);
      spec.stages.clear();
      EXPECT_THROW(service.plan(request_for(spec, 0.5, auto_strategy,
                                            strategies::PolicyKind::kSResume)),
                   PreconditionError);
    }
  }
  auto spec = make_spec(40, 25.0, 2.0, 120.0);
  spec.stages.clear();
  EXPECT_THROW(trace::plan_staged_spec(spec, strategies::PolicyKind::kSResume,
                                       trace::PlannerConfig{}, 0.5),
               PreconditionError);
}

// --- per-request fields are never served from the cache ---------------------

TEST(PlannerService, QuantizedHitKeepsTheRequestsOwnPrice) {
  // Two prices in the same geometric bucket share a plan, but the spec's
  // price field must carry each request's OWN spot price — a cached plan
  // must never leak the first arrival's price clock into a later job.
  const double grid = 0.1;
  PlannerService service(service_config(grid));
  ASSERT_EQ(serve::quantize_bucket(1.0, grid),
            serve::quantize_bucket(1.04, grid));
  auto first = make_spec(50, 20.0, 1.8, 120.0);
  auto second = first;
  const PlanReply miss = service.plan(
      request_for(first, 1.0, false, strategies::PolicyKind::kSResume));
  const PlanReply hit = service.plan(
      request_for(second, 1.04, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(first.price, 1.0);
  EXPECT_EQ(second.price, 1.04);  // its own clock, not the cached job's
  EXPECT_EQ(first.stage(0).r, second.stage(0).r);  // same shared plan
}

// --- quantization-boundary bucketing ----------------------------------------

TEST(PlanCacheQuantization, BoundaryValuesLandInTheIntendedBucket) {
  // Buckets are powers of (1 + grid): bucket(x) = floor(log(x)/log1p(grid)).
  const double grid = 0.1;
  const double ratio = 1.0 + grid;
  // Values within one ratio of each other share a bucket...
  EXPECT_EQ(serve::quantize_bucket(1.0, grid),
            serve::quantize_bucket(ratio * 0.999, grid));
  // ...and the bucket index steps exactly at powers of the ratio.
  for (const int k : {1, 3, 7}) {
    const double edge = std::pow(ratio, k);
    EXPECT_EQ(serve::quantize_bucket(edge * 1.0001, grid),
              serve::quantize_bucket(edge * ratio * 0.9999, grid));
    EXPECT_NE(serve::quantize_bucket(edge * 0.9999, grid),
              serve::quantize_bucket(edge * 1.0001, grid));
  }
}

TEST(PlanCacheQuantization, ServiceKeysBucketJobsTogether) {
  const double grid = 0.1;
  PlannerService service(service_config(grid));
  auto a = make_spec(50, 20.0, 1.8, 120.0);
  auto b = make_spec(50, 21.0, 1.8, 121.0);   // same buckets as a
  auto c = make_spec(50, 20.0, 1.8, 140.0);   // deadline crosses a boundary
  ASSERT_EQ(serve::quantize_bucket(20.0, grid),
            serve::quantize_bucket(21.0, grid));
  ASSERT_EQ(serve::quantize_bucket(120.0, grid),
            serve::quantize_bucket(121.0, grid));
  ASSERT_NE(serve::quantize_bucket(120.0, grid),
            serve::quantize_bucket(140.0, grid));
  auto req_a = request_for(a, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_b = request_for(b, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_c = request_for(c, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_EQ(service.make_key(req_a), service.make_key(req_b));
  EXPECT_FALSE(service.make_key(req_a) == service.make_key(req_c));

  EXPECT_FALSE(service.plan(req_a).cache_hit);
  EXPECT_TRUE(service.plan(req_b).cache_hit);   // same bucket: shared plan
  EXPECT_FALSE(service.plan(req_c).cache_hit);  // new bucket: own plan
  EXPECT_EQ(a.stage(0).r, b.stage(0).r);
  // Different planning modes never share a bucket even on equal shapes.
  auto d = a;
  auto req_d = request_for(d, 0.4, true, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_a) == service.make_key(req_d));
}

TEST(PlanCacheQuantization, NonPositivePriceNeverSharesABucket) {
  // Regression: a value that is not a positive finite number used to key as
  // its raw bit pattern, and 0.0's pattern is 0, the bucket of
  // [1, 1 + grid). A price-0 request after a price-1 one was then served the
  // price-1 plan (r = 2 where uncached planning gives r = 12).
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  auto paid = make_spec(50, 20.0, 1.8, 100.0);
  auto unpaid = paid;
  auto reference = paid;
  EXPECT_FALSE(service
                   .plan(request_for(paid, 1.0, false,
                                     strategies::PolicyKind::kSResume))
                   .cache_hit);
  const PlanReply reply = service.plan(
      request_for(unpaid, 0.0, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(reply.cache_hit);
  trace::plan_staged_spec(reference, strategies::PolicyKind::kSResume,
                          planner, 0.0);
  expect_same_plan(unpaid, reference);
  EXPECT_NE(unpaid.stage(0).r, paid.stage(0).r);
}

TEST(PlanCacheQuantization, OddValuesKeyOutsideEveryBucket) {
  // Bucket indices are monotone in the value, so every one lies between the
  // buckets of the smallest and the largest positive finite double. A value
  // that is not a positive finite number must key outside that range, and
  // distinct such values must key apart.
  using limits = std::numeric_limits<double>;
  const double odd[] = {0.0,
                        -0.0,
                        -1.0,
                        -limits::denorm_min(),
                        -limits::max(),
                        limits::infinity(),
                        -limits::infinity(),
                        limits::quiet_NaN(),
                        -limits::quiet_NaN()};
  for (const double grid : {0.05, serve::kMinQuantizeGrid}) {
    const std::int64_t lowest =
        serve::quantize_bucket(limits::denorm_min(), grid);
    const std::int64_t highest = serve::quantize_bucket(limits::max(), grid);
    ASSERT_LT(lowest, 0);
    ASSERT_GT(highest, 0);
    for (std::size_t i = 0; i < std::size(odd); ++i) {
      const std::int64_t key = serve::quantize_bucket(odd[i], grid);
      EXPECT_TRUE(key < lowest || key > highest) << odd[i] << " at " << grid;
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_NE(key, serve::quantize_bucket(odd[j], grid))
            << odd[i] << " vs " << odd[j];
      }
    }
  }
}

// --- staged keys (regression) -----------------------------------------------

TEST(PlannerService, KeyCoversEveryStagesFields) {
  // Regression: the cache key used to encode only the root stage's shape,
  // so two jobs differing only in their reduce stage hashed identically and
  // the second arrival was served the first one's plan. Every stage field
  // must enter the key.
  PlannerService service(service_config(kGrid));
  auto base = make_spec(50, 20.0, 1.8, 240.0);
  base.stages.push_back(
      {.num_tasks = 10, .t_min = 45.0, .beta = 1.7, .deps = {}});
  auto wider = make_spec(50, 20.0, 1.8, 240.0);
  wider.stages.push_back(
      {.num_tasks = 25, .t_min = 45.0, .beta = 1.7, .deps = {}});
  auto slower = make_spec(50, 20.0, 1.8, 240.0);
  slower.stages.push_back(
      {.num_tasks = 10, .t_min = 60.0, .beta = 1.7, .deps = {}});
  auto req_base =
      request_for(base, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_wider =
      request_for(wider, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_slower =
      request_for(slower, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_base) == service.make_key(req_wider));
  EXPECT_FALSE(service.make_key(req_base) == service.make_key(req_slower));
  // And through the service: the differing job must NOT hit base's entry.
  EXPECT_FALSE(service.plan(req_base).cache_hit);
  EXPECT_FALSE(service.plan(req_wider).cache_hit);
  EXPECT_FALSE(service.plan(req_slower).cache_hit);
}

TEST(PlannerService, KeyCoversStageWiring) {
  // Two three-stage jobs with identical stage shapes but different DAG
  // edges (chain vs fan-in from the root) must never share a plan.
  PlannerService service(service_config(kGrid));
  auto chain = make_spec(20, 20.0, 1.8, 300.0);
  chain.stages.push_back(
      {.num_tasks = 10, .t_min = 40.0, .beta = 1.6, .deps = {}});
  chain.stages.push_back(
      {.num_tasks = 5, .t_min = 30.0, .beta = 1.5, .deps = {}});
  auto fan = chain;  // chain's deps default: stage 2 waits on stage 1
  fan.stage(2).deps = {0};  // same shapes, different wiring
  auto req_chain =
      request_for(chain, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_fan =
      request_for(fan, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_FALSE(service.make_key(req_chain) == service.make_key(req_fan));
}

TEST(PlannerService, StagedHitsMatchStagedPlanning) {
  // A staged job through a caching service twice: the second pass is a
  // hit and every per-stage planned field equals the uncached
  // trace::plan_staged_spec output, bit for bit.
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  auto cold = make_spec(40, 25.0, 1.4, 500.0);
  cold.stages.push_back(
      {.num_tasks = 10, .t_min = 45.0, .beta = 1.7, .deps = {}});
  auto warm = cold;
  auto reference = cold;
  const PlanReply miss = service.plan(
      request_for(cold, 0.4, false, strategies::PolicyKind::kSResume));
  const PlanReply hit = service.plan(
      request_for(warm, 0.4, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  trace::plan_staged_spec(reference, strategies::PolicyKind::kSResume,
                          planner, 0.4);
  expect_same_plan(cold, reference);
  expect_same_plan(warm, reference);
  EXPECT_EQ(miss.r, reference.stage(0).r);
}

/// A six-stage job: the root plus five stages chained behind it.
mapreduce::JobSpec six_stage_chain() {
  auto spec = make_spec(8, 25.0, 1.4, 900.0);
  for (int s = 1; s < 6; ++s) {
    spec.stages.push_back(
        {.num_tasks = 4, .t_min = 30.0 + 5.0 * s, .beta = 1.5, .deps = {}});
  }
  return spec;
}

TEST(PlannerService, WideDagsAreMemoized) {
  // The key has no stage budget: a six-stage job misses once and then hits,
  // and both plans equal the uncached trace::plan_staged_spec output.
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  auto cold = six_stage_chain();
  auto warm = cold;
  auto reference = cold;
  const PlanReply miss = service.plan(
      request_for(cold, 0.4, false, strategies::PolicyKind::kSResume));
  const PlanReply hit = service.plan(
      request_for(warm, 0.4, false, strategies::PolicyKind::kSResume));
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_TRUE(hit.cache_hit);
  trace::plan_staged_spec(reference, strategies::PolicyKind::kSResume,
                          planner, 0.4);
  expect_same_plan(cold, reference);
  expect_same_plan(warm, reference);
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.cache_size, 1u);
}

TEST(PlannerService, KeyIsTheDepSetNotItsListing) {
  // A stage's deps are a set: listing them in another order is the same
  // job and shares its key (and plan), while the same six stage shapes
  // wired as a chain and as a fan-in into the last stage never do.
  PlannerService service(service_config(kGrid));
  auto fan_in = six_stage_chain();
  fan_in.stage(5).deps = {1, 2, 3, 4};
  auto reordered = fan_in;
  reordered.stage(5).deps = {4, 2, 1, 3};
  auto chain = six_stage_chain();
  auto req_fan_in =
      request_for(fan_in, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_reordered =
      request_for(reordered, 0.4, false, strategies::PolicyKind::kSResume);
  auto req_chain =
      request_for(chain, 0.4, false, strategies::PolicyKind::kSResume);
  EXPECT_EQ(service.make_key(req_fan_in), service.make_key(req_reordered));
  EXPECT_FALSE(service.make_key(req_fan_in) == service.make_key(req_chain));

  EXPECT_FALSE(service.plan(req_fan_in).cache_hit);
  EXPECT_TRUE(service.plan(req_reordered).cache_hit);
  EXPECT_FALSE(service.plan(req_chain).cache_hit);
  expect_same_plan(reordered, fan_in);
}

// --- auto mode on staged jobs ----------------------------------------------

TEST(PlannerService, StagedAutoMatchesRootViewChoice) {
  // Auto mode on a staged job picks the strategy with optimize_all on the
  // root stage's critical-path view, then plans every stage under the
  // winner. An off service, a caching service's miss and its hit must all
  // reproduce that reference, for a 2-stage and for a 6-stage job.
  auto two = make_spec(40, 25.0, 1.4, 500.0);
  two.stages.push_back(
      {.num_tasks = 10, .t_min = 45.0, .beta = 1.7, .deps = {}});
  const double price = 0.4;
  for (const mapreduce::JobSpec& shape : {two, six_stage_chain()}) {
    PlannerService off(service_config(0.0));
    PlannerService cached(service_config(kGrid));
    const trace::PlannerConfig planner = off.config().planner;

    const auto deadlines = trace::critical_path_split(shape);
    const auto best = core::optimize_all(
        trace::stage_job_params(shape.stage(0), deadlines[0], planner,
                                core::Strategy::kSpeculativeResume),
        trace::stage_economics(shape.stage(0), deadlines[0], planner, price),
        planner.optimizer);
    const auto kind = trace::policy_of(best.strategy);
    auto reference = shape;
    trace::plan_staged_spec(reference, kind, planner, price);

    auto uncached = shape;
    auto miss = shape;
    auto hit = shape;
    const PlanReply replies[] = {
        off.plan(request_for(uncached, price, true,
                             strategies::PolicyKind::kSResume)),
        cached.plan(request_for(miss, price, true,
                                strategies::PolicyKind::kSResume)),
        cached.plan(request_for(hit, price, true,
                                strategies::PolicyKind::kSResume))};
    for (const auto* planned : {&uncached, &miss, &hit}) {
      expect_same_plan(*planned, reference);
    }
    for (const PlanReply& reply : replies) {
      EXPECT_EQ(reply.kind, kind);
      EXPECT_EQ(reply.r, reference.stage(0).r);
    }
    EXPECT_FALSE(replies[1].cache_hit);
    EXPECT_TRUE(replies[2].cache_hit);
    EXPECT_EQ(cached.stats().hits, 1u);
  }
}

// --- the memo's cap ---------------------------------------------------------

TEST(PlannerService, FullMemoPlansFreshAndCountsDrops) {
  // Fill the memo to its cap with cheap distinct keys (Hadoop-NS plans
  // without optimizing; the task count is keyed unquantized), then plan a
  // new key: it is a miss planned fresh, equal to the uncached reference,
  // and counted as a drop; the memo stays at the cap, so the same key
  // misses again.
  PlannerService service(service_config(kGrid));
  const trace::PlannerConfig planner = service.config().planner;
  for (std::size_t i = 0; i < serve::kMaxCachedPlans; ++i) {
    auto spec = make_spec(100 + static_cast<int>(i), 20.0, 1.8, 100.0);
    service.plan(
        request_for(spec, 0.4, false, strategies::PolicyKind::kHadoopNS));
  }
  auto stats = service.stats();
  ASSERT_EQ(stats.cache_size, serve::kMaxCachedPlans);
  ASSERT_EQ(stats.inserts, serve::kMaxCachedPlans);
  ASSERT_EQ(stats.drops, 0u);

  for (int round = 0; round < 2; ++round) {
    auto spec = make_spec(50, 20.0, 1.8, 120.0);
    auto reference = spec;
    const PlanReply reply = service.plan(
        request_for(spec, 0.4, false, strategies::PolicyKind::kSResume));
    EXPECT_FALSE(reply.cache_hit);
    trace::plan_staged_spec(reference, strategies::PolicyKind::kSResume,
                            planner, 0.4);
    expect_same_plan(spec, reference);
    EXPECT_EQ(reply.r, reference.stage(0).r);
  }
  stats = service.stats();
  EXPECT_EQ(stats.misses, serve::kMaxCachedPlans + 2);
  EXPECT_EQ(stats.drops, 2u);
  EXPECT_EQ(stats.inserts, serve::kMaxCachedPlans);
  EXPECT_EQ(stats.cache_size, serve::kMaxCachedPlans);
}

TEST(PlanCacheConfigValidation, RejectsBadKnobs) {
  PlanCacheConfig bad_grid;
  for (const double grid : {-0.5, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    bad_grid.grid = grid;
    EXPECT_THROW(bad_grid.validate(), PreconditionError) << grid;
  }
  // Regression: below the bound a bucket index leaves the int64 range (at
  // 1e-20, every price, t_min, beta and deadline bucketed to INT64_MIN on
  // x86, so unrelated jobs shared one plan).
  bad_grid.grid = 1e-20;
  EXPECT_THROW(bad_grid.validate(), PreconditionError);
  bad_grid.grid = serve::kMinQuantizeGrid * 0.5;
  EXPECT_THROW(bad_grid.validate(), PreconditionError);
  PlanCacheConfig smallest;
  smallest.grid = serve::kMinQuantizeGrid;
  EXPECT_NO_THROW(smallest.validate());
  const PlanCacheConfig off;  // grid 0: the memo is off
  EXPECT_FALSE(off.enabled());
  EXPECT_NO_THROW(off.validate());
}

}  // namespace
}  // namespace chronos
