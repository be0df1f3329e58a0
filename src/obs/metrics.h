// Process-wide metrics registry: named counters, high-water gauges and
// timers (count and total) for the engine's hot paths.
//
// Design constraints (the hard invariant of the observability layer):
//  - recording must live entirely off the numeric path — no metric ever
//    touches an Rng, a seed stream, or an aggregate, so sweep goldens and
//    journal bytes are byte-identical with instrumentation on, off, or
//    compiled out;
//  - the hot-path cost of an update is one thread-local relaxed increment
//    (counters/gauges) — values live in per-thread shards that only the
//    owning thread writes, so there is no cross-thread cache-line traffic;
//    aggregation walks the shards at read time;
//  - with CHRONOS_OBS_ENABLED == 0 (cmake -DCHRONOS_OBS=OFF) every API
//    below collapses to a constexpr no-op and call sites compile to
//    nothing.
//
// Handles are small value types (a slot index) meant to be registered once
// and cached, typically in a namespace-scope const at the instrumentation
// site:
//
//   const obs::Counter c_fired = obs::counter("sim.events_fired");
//   ...
//   c_fired.add();                 // TLS shard increment
//
// Registration is idempotent by name; registering one name with two
// different kinds throws. snapshot()/metrics_json() aggregate live shards
// plus the totals of exited threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#ifndef CHRONOS_OBS_ENABLED
#define CHRONOS_OBS_ENABLED 1
#endif

namespace chronos::obs {

enum class MetricKind { kCounter, kGauge, kTimer };

/// Aggregated timer state: how many durations were recorded and their sum.
struct TimerStats {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// One aggregated metric, as returned by snapshot().
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total, or gauge high-water
  TimerStats timer;         ///< kTimer only
};

#if CHRONOS_OBS_ENABLED

/// Monotonic counter. add() is a thread-local relaxed increment.
class Counter {
 public:
  constexpr Counter() = default;
  void add(std::uint64_t n = 1) const;

 private:
  friend Counter counter(const std::string&);
  explicit constexpr Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// High-water gauge: update(v) records an instantaneous level; the
/// aggregated value is the maximum ever observed on any thread.
class Gauge {
 public:
  constexpr Gauge() = default;
  void update(std::uint64_t level) const;

 private:
  friend Gauge gauge(const std::string&);
  explicit constexpr Gauge(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Duration accumulator. record_ns() adds one duration to the thread's
/// count and total; pair with Stopwatch or ScopedTimer for measurement.
class Timer {
 public:
  constexpr Timer() = default;
  void record_ns(std::uint64_t ns) const;

 private:
  friend Timer timer(const std::string&);
  explicit constexpr Timer(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = 0;
};

/// Registers (or finds) a metric. Idempotent per name; a name registered
/// with a different kind throws PreconditionError, as does exhausting the
/// fixed shard capacity for the kind.
Counter counter(const std::string& name);
Gauge gauge(const std::string& name);
Timer timer(const std::string& name);

/// Nanoseconds elapsed since construction (steady clock).
class Stopwatch {
 public:
  Stopwatch();
  std::uint64_t elapsed_ns() const;

 private:
  std::uint64_t start_ns_ = 0;
};

/// RAII: records the enclosing scope's duration into `timer`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer) : timer_(timer) {}
  ~ScopedTimer() { timer_.record_ns(watch_.elapsed_ns()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer timer_;
  Stopwatch watch_;
};

/// True when the registry is compiled in (CHRONOS_OBS=ON).
constexpr bool compiled_in() { return true; }

/// Aggregated view of every registered metric, sorted by name. Sums live
/// thread shards plus the flushed totals of exited threads; concurrent
/// updates may or may not be visible (each metric is internally
/// consistent, the set is not a point-in-time cut).
std::vector<MetricValue> snapshot();

/// The snapshot as deterministic, locale-free JSON:
/// {"chronos_metrics":1,"metrics":[{"name":...,"kind":...,...},...]}.
std::string metrics_json();

/// Zeroes every metric (live shards, retired totals, gauge high-waters).
/// Test-only: must not race concurrent writers.
void reset_for_test();

#else  // CHRONOS_OBS_ENABLED == 0: every operation is a constexpr no-op.

class Counter {
 public:
  constexpr Counter() = default;
  constexpr void add(std::uint64_t = 1) const {}
};

class Gauge {
 public:
  constexpr Gauge() = default;
  constexpr void update(std::uint64_t) const {}
};

class Timer {
 public:
  constexpr Timer() = default;
  constexpr void record_ns(std::uint64_t) const {}
};

constexpr Counter counter(const std::string&) { return {}; }
constexpr Gauge gauge(const std::string&) { return {}; }
constexpr Timer timer(const std::string&) { return {}; }

class Stopwatch {
 public:
  constexpr Stopwatch() = default;
  constexpr std::uint64_t elapsed_ns() const { return 0; }
};

class ScopedTimer {
 public:
  explicit constexpr ScopedTimer(Timer) {}
};

constexpr bool compiled_in() { return false; }

inline std::vector<MetricValue> snapshot() { return {}; }
inline std::string metrics_json() {
  return "{\"chronos_metrics\":1,\"metrics\":[]}\n";
}
inline void reset_for_test() {}

#endif  // CHRONOS_OBS_ENABLED

}  // namespace chronos::obs
