#include "obs/trace.h"

#if CHRONOS_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "common/numeric.h"

namespace chronos::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t start_ns;  ///< absolute steady-clock ns
  std::uint64_t dur_ns;
  std::uint32_t tid;
  std::uint8_t nargs;
  const char* keys[4];
  double values[4];
};

struct ThreadBuffer;

struct Recorder {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::uint64_t epoch_ns = 0;            ///< subtracted at render time
  std::uint32_t next_tid = 1;
  std::vector<ThreadBuffer*> buffers;    ///< live threads
  std::vector<TraceEvent> retired;       ///< events of exited threads
  std::map<std::uint32_t, std::string> thread_names;
};

/// Leaked for the same static-destruction-order reason as the metrics
/// registry: thread_local buffers flush into it on thread exit.
Recorder& recorder() {
  static Recorder* instance = new Recorder;
  return *instance;
}

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::mutex mu;  ///< uncontended except while the trace is being drained
  std::vector<TraceEvent> events;

  ThreadBuffer() {
    Recorder& rec = recorder();
    std::lock_guard<std::mutex> lock(rec.mu);
    tid = rec.next_tid++;
    rec.buffers.push_back(this);
  }

  ~ThreadBuffer() {
    Recorder& rec = recorder();
    std::lock_guard<std::mutex> lock(rec.mu);
    rec.retired.insert(rec.retired.end(), events.begin(), events.end());
    for (auto it = rec.buffers.begin(); it != rec.buffers.end(); ++it) {
      if (*it == this) {
        rec.buffers.erase(it);
        break;
      }
    }
  }
};

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer buffer;
  return buffer;
}

/// Microseconds with nanosecond precision, locale-free ("12.345").
void append_us(std::string& out, std::uint64_t ns) {
  out += numeric::format_double_fixed(static_cast<double>(ns) / 1000.0, 3);
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_event(std::string& json, const TraceEvent& event,
                  std::uint64_t epoch_ns) {
  json += "\n  {\"name\":\"";
  json += event.name;
  json += "\",\"cat\":\"";
  json += event.category;
  json += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  json += std::to_string(event.tid);
  json += ",\"ts\":";
  append_us(json, event.start_ns >= epoch_ns ? event.start_ns - epoch_ns : 0);
  json += ",\"dur\":";
  append_us(json, event.dur_ns);
  if (event.nargs > 0) {
    json += ",\"args\":{";
    for (std::uint8_t a = 0; a < event.nargs; ++a) {
      if (a > 0) {
        json += ',';
      }
      json += '"';
      json += event.keys[a];
      json += "\":";
      json += numeric::format_double(event.values[a]);
    }
    json += '}';
  }
  json += '}';
}

}  // namespace

bool tracing_enabled() {
  return recorder().enabled.load(std::memory_order_relaxed);
}

void start_tracing() {
  Recorder& rec = recorder();
  std::lock_guard<std::mutex> lock(rec.mu);
  for (ThreadBuffer* buffer : rec.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  rec.retired.clear();
  rec.epoch_ns = steady_ns();
  rec.enabled.store(true, std::memory_order_relaxed);
}

std::string stop_tracing_to_json() {
  Recorder& rec = recorder();
  rec.enabled.store(false, std::memory_order_relaxed);
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, std::string> names;
  std::uint64_t epoch_ns = 0;
  {
    std::lock_guard<std::mutex> lock(rec.mu);
    events = std::move(rec.retired);
    rec.retired.clear();
    for (ThreadBuffer* buffer : rec.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
      buffer->events.clear();
    }
    names = rec.thread_names;
    epoch_ns = rec.epoch_ns;
  }
  // One track per thread; within a track children share the parent's start
  // at ns granularity only in degenerate cases, where the longer (outer)
  // span must come first for viewers to nest them.
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.tid != b.tid) {
                return a.tid < b.tid;
              }
              if (a.start_ns != b.start_ns) {
                return a.start_ns < b.start_ns;
              }
              return a.dur_ns > b.dur_ns;
            });

  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  json +=
      "\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"chronos\"}}";
  for (const auto& [tid, name] : names) {
    json += ",\n  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    json += std::to_string(tid);
    json += ",\"args\":{\"name\":";
    append_json_string(json, name);
    json += "}}";
  }
  for (const TraceEvent& event : events) {
    json += ',';
    append_event(json, event, epoch_ns);
  }
  json += "\n]}\n";
  return json;
}

void set_trace_thread_name(const std::string& name) {
  Recorder& rec = recorder();
  const std::uint32_t tid = local_buffer().tid;
  std::lock_guard<std::mutex> lock(rec.mu);
  rec.thread_names[tid] = name;
}

TraceSpan::TraceSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!tracing_enabled()) {
    return;
  }
  active_ = true;
  start_ns_ = steady_ns();
}

TraceSpan::~TraceSpan() {
  if (!active_ || !tracing_enabled()) {
    return;  // spans straddling a stop are dropped, never half-recorded
  }
  const std::uint64_t end_ns = steady_ns();
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.start_ns = start_ns_;
  event.dur_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  event.nargs = nargs_;
  for (std::uint8_t a = 0; a < nargs_; ++a) {
    event.keys[a] = keys_[a];
    event.values[a] = values_[a];
  }
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(event);
}

void TraceSpan::note(const char* key, double value) {
  if (!active_ || nargs_ >= 4) {
    return;
  }
  keys_[nargs_] = key;
  values_[nargs_] = value;
  ++nargs_;
}

}  // namespace chronos::obs

#endif  // CHRONOS_OBS_ENABLED
