#include "obs/metrics.h"

#if CHRONOS_OBS_ENABLED

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <vector>

#include "common/error.h"

namespace chronos::obs {

namespace {

// Fixed per-kind shard capacities. Registration past the cap throws; the
// caps exist so a shard is one flat allocation the owning thread walks with
// plain indexed loads.
constexpr std::size_t kMaxCounters = 128;
constexpr std::size_t kMaxGauges = 32;
constexpr std::size_t kMaxTimers = 32;

/// Per-thread timer state. Only the owning thread writes; other threads
/// read during aggregation, hence the relaxed atomics.
struct TimerCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
};

/// Accumulated totals of exited threads (plain fields; registry-mutex
/// guarded).
struct RetiredTotals {
  std::array<std::uint64_t, kMaxCounters> counters{};
  std::array<std::uint64_t, kMaxGauges> gauge_max{};
  std::array<TimerStats, kMaxTimers> timers{};
};

struct Shard;

struct Registry {
  std::mutex mu;
  std::map<std::string, std::pair<MetricKind, std::uint32_t>> names;
  std::size_t num_counters = 0;
  std::size_t num_gauges = 0;
  std::size_t num_timers = 0;
  std::vector<Shard*> shards;  ///< live per-thread shards
  RetiredTotals retired;
};

/// Leaked singleton: must outlive every thread_local Shard destructor, and
/// static-destruction order across translation units cannot guarantee that
/// for a plain static.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauge_max{};
  std::array<TimerCell, kMaxTimers> timers{};

  Shard() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.shards.push_back(this);
  }

  /// Thread exit: fold this thread's totals into the retired accumulator so
  /// finished workers' counts survive the shard.
  ~Shard() {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      reg.retired.counters[i] +=
          counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < kMaxGauges; ++i) {
      const std::uint64_t v = gauge_max[i].load(std::memory_order_relaxed);
      if (v > reg.retired.gauge_max[i]) {
        reg.retired.gauge_max[i] = v;
      }
    }
    for (std::size_t i = 0; i < kMaxTimers; ++i) {
      const TimerCell& cell = timers[i];
      auto& out = reg.retired.timers[i];
      out.count += cell.count.load(std::memory_order_relaxed);
      out.total_ns += cell.total_ns.load(std::memory_order_relaxed);
    }
    for (auto it = reg.shards.begin(); it != reg.shards.end(); ++it) {
      if (*it == this) {
        reg.shards.erase(it);
        break;
      }
    }
  }
};

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

/// Owner-thread increment: a relaxed load+store (not fetch_add) — no other
/// thread ever writes the slot, so the RMW's lock prefix buys nothing.
void bump(std::atomic<std::uint64_t>& slot, std::uint64_t n) {
  slot.store(slot.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

void raise_to(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  if (v > slot.load(std::memory_order_relaxed)) {
    slot.store(v, std::memory_order_relaxed);
  }
}

std::uint32_t register_metric(const std::string& name, MetricKind kind,
                              std::size_t& next, std::size_t cap) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.names.find(name);
  if (it != reg.names.end()) {
    CHRONOS_EXPECTS(it->second.first == kind,
                    "metric '" + name +
                        "' already registered with a different kind");
    return it->second.second;
  }
  CHRONOS_EXPECTS(next < cap, "metric shard capacity exhausted registering '" +
                                  name + "'");
  const auto slot = static_cast<std::uint32_t>(next++);
  reg.names.emplace(name, std::make_pair(kind, slot));
  return slot;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

void Counter::add(std::uint64_t n) const {
  bump(local_shard().counters[slot_], n);
}

void Gauge::update(std::uint64_t level) const {
  raise_to(local_shard().gauge_max[slot_], level);
}

void Timer::record_ns(std::uint64_t ns) const {
  TimerCell& cell = local_shard().timers[slot_];
  bump(cell.count, 1);
  bump(cell.total_ns, ns);
}

Counter counter(const std::string& name) {
  return Counter(register_metric(name, MetricKind::kCounter,
                                 registry().num_counters, kMaxCounters));
}

Gauge gauge(const std::string& name) {
  return Gauge(register_metric(name, MetricKind::kGauge,
                               registry().num_gauges, kMaxGauges));
}

Timer timer(const std::string& name) {
  return Timer(register_metric(name, MetricKind::kTimer,
                               registry().num_timers, kMaxTimers));
}

Stopwatch::Stopwatch()
    : start_ns_(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

std::uint64_t Stopwatch::elapsed_ns() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now >= start_ns_ ? now - start_ns_ : 0;
}

std::vector<MetricValue> snapshot() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<MetricValue> out;
  out.reserve(reg.names.size());
  for (const auto& [name, meta] : reg.names) {  // std::map: sorted by name
    const auto [kind, slot] = meta;
    MetricValue value;
    value.name = name;
    value.kind = kind;
    switch (kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = reg.retired.counters[slot];
        for (const Shard* shard : reg.shards) {
          total += shard->counters[slot].load(std::memory_order_relaxed);
        }
        value.value = total;
        break;
      }
      case MetricKind::kGauge: {
        std::uint64_t high = reg.retired.gauge_max[slot];
        for (const Shard* shard : reg.shards) {
          high = std::max(
              high, shard->gauge_max[slot].load(std::memory_order_relaxed));
        }
        value.value = high;
        break;
      }
      case MetricKind::kTimer: {
        value.timer = reg.retired.timers[slot];
        for (const Shard* shard : reg.shards) {
          const TimerCell& cell = shard->timers[slot];
          value.timer.count += cell.count.load(std::memory_order_relaxed);
          value.timer.total_ns +=
              cell.total_ns.load(std::memory_order_relaxed);
        }
        break;
      }
    }
    out.push_back(std::move(value));
  }
  return out;
}

std::string metrics_json() {
  const std::vector<MetricValue> metrics = snapshot();
  std::string json = "{\"chronos_metrics\":1,\"metrics\":[";
  bool first = true;
  for (const MetricValue& metric : metrics) {
    if (!first) {
      json += ',';
    }
    first = false;
    json += "\n  {\"name\":\"";
    json += metric.name;  // names are code literals: no escaping needed
    json += "\",\"kind\":\"";
    switch (metric.kind) {
      case MetricKind::kCounter:
        json += "counter";
        break;
      case MetricKind::kGauge:
        json += "gauge";
        break;
      case MetricKind::kTimer:
        json += "timer";
        break;
    }
    json += '"';
    if (metric.kind == MetricKind::kTimer) {
      const TimerStats& t = metric.timer;
      json += ",\"count\":";
      append_u64(json, t.count);
      json += ",\"total_ns\":";
      append_u64(json, t.total_ns);
    } else {
      json += ",\"value\":";
      append_u64(json, metric.value);
    }
    json += '}';
  }
  json += "\n]}\n";
  return json;
}

void reset_for_test() {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.retired = RetiredTotals{};
  for (Shard* shard : reg.shards) {
    for (auto& c : shard->counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& g : shard->gauge_max) {
      g.store(0, std::memory_order_relaxed);
    }
    for (TimerCell& cell : shard->timers) {
      cell.count.store(0, std::memory_order_relaxed);
      cell.total_ns.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace chronos::obs

#endif  // CHRONOS_OBS_ENABLED
