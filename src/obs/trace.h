// Span/trace recorder emitting Chrome trace-event JSON ("catapult" format),
// viewable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Tracing is off by default: a TraceSpan constructed while tracing is
// disabled costs one relaxed atomic load and records nothing. When enabled
// (start_tracing), each thread appends completed spans to its own buffer,
// so recording never blocks another thread; buffers of exited threads are
// kept until the trace is written. Spans are strictly scoped (RAII), so
// spans on one thread always nest.
//
//   obs::start_tracing();
//   {
//     obs::TraceSpan span("sweep.rep");
//     span.note("cell", 3);
//     ...
//   }
//   exp::write_file("trace.json", obs::stop_tracing_to_json());
//
// Like the metrics registry, the recorder lives entirely off the numeric
// path, and compiles out to constexpr no-ops with CHRONOS_OBS_ENABLED == 0.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"  // CHRONOS_OBS_ENABLED default

namespace chronos::obs {

#if CHRONOS_OBS_ENABLED

/// True while spans are being collected.
bool tracing_enabled();

/// Enables collection and clears any previously collected events.
void start_tracing();

/// Disables collection and renders every collected span as Chrome
/// trace-event JSON. Deterministically ordered (by thread track, then start
/// time). Call after worker threads have quiesced — spans still open on
/// other threads when tracing stops are dropped.
std::string stop_tracing_to_json();

/// Names the calling thread's track in the trace ("main", "pool-3", ...).
/// Idempotent; safe to call whether or not tracing is active.
void set_trace_thread_name(const std::string& name);

/// RAII span: records [construction, destruction) on the calling thread's
/// track. `name` and `category` must be string literals (the recorder
/// stores the pointers). Up to 4 numeric args via note().
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "chronos");
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument (shown in the Perfetto span details).
  /// `key` must be a string literal. Extra notes beyond 4 are dropped.
  void note(const char* key, double value);

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_ = 0;
  std::uint8_t nargs_ = 0;
  bool active_ = false;
  const char* keys_[4];
  double values_[4];
};

#else  // CHRONOS_OBS_ENABLED == 0

constexpr bool tracing_enabled() { return false; }
inline void start_tracing() {}
inline std::string stop_tracing_to_json() {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n";
}
inline void set_trace_thread_name(const std::string&) {}

class TraceSpan {
 public:
  explicit constexpr TraceSpan(const char*, const char* = "chronos") {}
  constexpr void note(const char*, double) {}
};

#endif  // CHRONOS_OBS_ENABLED

}  // namespace chronos::obs
