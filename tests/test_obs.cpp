// Observability layer: the metrics registry (TLS-sharded counters, gauges,
// timers; aggregation across live and exited threads; deterministic JSON),
// the span recorder (Chrome trace-event JSON, per-thread nesting), exact
// optimizer evaluation accounting, and the layer's hard invariant — a
// sweeprun of manifests/tiny.ini with --metrics-out/--trace-out/--progress
// produces CSV/JSON reports and journal bytes identical to the committed
// goldens and to an uninstrumented run, also when a second run rewrites
// the same output paths.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/optimizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace chronos {
namespace {

using testing::CommandResult;
using testing::read_golden;
using testing::run_command;
using testing::slurp;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_obs_" + name;
}

const std::string kSweeprun = CHRONOS_SWEEPRUN_BIN;
const std::string kTinyManifest =
    std::string(CHRONOS_MANIFEST_DIR) + "/tiny.ini";

// --- tiny JSON well-formedness checker -------------------------------------
//
// Recursive-descent validator, strict enough to catch the classic emitter
// bugs (trailing commas, unescaped strings, bare NaN/Infinity). Not a data
// model — tests that need values extract them with string searches.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  /// True when the whole input is exactly one valid JSON value.
  bool valid() {
    pos_ = 0;
    error_.clear();
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing garbage at byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) {
      return fail(std::string("expected '") + word + "'");
    }
    pos_ += n;
    return true;
  }

  bool string() {
    if (text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (static_cast<unsigned char>(text_[pos_]) < 0x20) {
        return fail("raw control character in string");
      }
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size() ||
            std::string("\"\\/bfnrtu").find(text_[pos_]) ==
                std::string::npos) {
          return fail("bad escape");
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return fail("unterminated string");
    }
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected number");
    }
    return true;
  }

  bool value() {
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':'");
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

#define SKIP_WHEN_COMPILED_OUT()                             \
  if (!obs::compiled_in()) {                                 \
    GTEST_SKIP() << "observability compiled out "            \
                    "(CHRONOS_OBS=OFF)";                     \
  }                                                          \
  static_assert(true, "")

/// Aggregated value of `name`, or nullptr.
const obs::MetricValue* find_metric(const std::vector<obs::MetricValue>& all,
                                    const std::string& name) {
  for (const obs::MetricValue& metric : all) {
    if (metric.name == name) {
      return &metric;
    }
  }
  return nullptr;
}

// --- metrics registry ------------------------------------------------------

TEST(ObsMetrics, CounterAggregatesLiveAndExitedThreads) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  const obs::Counter hits = obs::counter("test.obs.hits");
  hits.add(5);  // main thread's live shard
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([hits] {
      for (int i = 0; i < 1000; ++i) {
        hits.add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();  // exited threads flush into the retired totals
  }
  const auto all = obs::snapshot();
  const obs::MetricValue* metric = find_metric(all, "test.obs.hits");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(metric->value, 4005u);
}

TEST(ObsMetrics, RegistrationIsIdempotentButKindMismatchThrows) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  const obs::Counter first = obs::counter("test.obs.same");
  const obs::Counter second = obs::counter("test.obs.same");
  first.add(2);
  second.add(3);  // same slot: both handles feed one metric
  const auto all = obs::snapshot();
  const obs::MetricValue* metric = find_metric(all, "test.obs.same");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->value, 5u);
  EXPECT_THROW(obs::gauge("test.obs.same"), PreconditionError);
  EXPECT_THROW(obs::timer("test.obs.same"), PreconditionError);
}

TEST(ObsMetrics, GaugeKeepsTheHighWaterAcrossThreads) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  const obs::Gauge depth = obs::gauge("test.obs.depth");
  depth.update(3);
  depth.update(17);
  depth.update(5);  // lower level must not erase the high-water
  std::thread other([depth] { depth.update(11); });
  other.join();
  const auto all = obs::snapshot();
  const obs::MetricValue* metric = find_metric(all, "test.obs.depth");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::MetricKind::kGauge);
  EXPECT_EQ(metric->value, 17u);
}

TEST(ObsMetrics, TimerRecordsCountAndTotal) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  const obs::Timer latency = obs::timer("test.obs.latency");
  latency.record_ns(0);
  latency.record_ns(1);
  latency.record_ns(1);
  latency.record_ns(7);
  std::thread other([latency] { latency.record_ns(1024); });
  other.join();  // the exited thread's shard folds into the retired totals
  const auto all = obs::snapshot();
  const obs::MetricValue* metric = find_metric(all, "test.obs.latency");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->kind, obs::MetricKind::kTimer);
  EXPECT_EQ(metric->timer.count, 5u);
  EXPECT_EQ(metric->timer.total_ns, 1033u);
}

TEST(ObsMetrics, ScopedTimerRecordsTheEnclosedScope) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  const obs::Timer scope = obs::timer("test.obs.scope");
  { const obs::ScopedTimer timing(scope); }
  const auto all = obs::snapshot();
  const obs::MetricValue* metric = find_metric(all, "test.obs.scope");
  ASSERT_NE(metric, nullptr);
  EXPECT_EQ(metric->timer.count, 1u);
}

TEST(ObsMetrics, JsonIsWellFormedAndSortedByName) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  obs::counter("test.obs.zeta").add(1);
  obs::gauge("test.obs.alpha").update(2);
  obs::timer("test.obs.mid").record_ns(3);
  const std::string json = obs::metrics_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << checker.error() << "\n" << json;
  const std::size_t alpha = json.find("test.obs.alpha");
  const std::size_t mid = json.find("test.obs.mid");
  const std::size_t zeta = json.find("test.obs.zeta");
  ASSERT_NE(alpha, std::string::npos);
  ASSERT_NE(mid, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha, mid);
  EXPECT_LT(mid, zeta);
  // A timer entry holds exactly its name, kind, count and total.
  EXPECT_NE(json.find("{\"name\":\"test.obs.mid\",\"kind\":\"timer\","
                      "\"count\":1,\"total_ns\":3}"),
            std::string::npos)
      << json;
}

TEST(ObsMetrics, ResetClearsEverything) {
  SKIP_WHEN_COMPILED_OUT();
  obs::reset_for_test();
  obs::counter("test.obs.reset").add(9);
  obs::gauge("test.obs.reset_gauge").update(9);
  obs::reset_for_test();
  for (const obs::MetricValue& metric : obs::snapshot()) {
    EXPECT_EQ(metric.value, 0u) << metric.name;
    EXPECT_EQ(metric.timer.count, 0u) << metric.name;
  }
}

// --- trace recorder --------------------------------------------------------

TEST(ObsTrace, SpansNestPerThreadAndEmitWellFormedChromeJson) {
  SKIP_WHEN_COMPILED_OUT();
  obs::start_tracing();
  obs::set_trace_thread_name("test-main");
  {
    obs::TraceSpan outer("outer", "test");
    outer.note("cells", 6);
    {
      obs::TraceSpan inner("inner", "test");
      inner.note("cell", 3);
    }
  }
  std::thread worker([] {
    obs::set_trace_thread_name("test-worker");
    obs::TraceSpan span("worker_span", "test");
  });
  worker.join();
  const std::string json = obs::stop_tracing_to_json();

  JsonChecker checker(json);
  ASSERT_TRUE(checker.valid()) << checker.error() << "\n" << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test-main\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test-worker\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker_span\""), std::string::npos);
  EXPECT_NE(json.find("\"cells\":6"), std::string::npos);

  // Nesting: events are sorted by (track, start, longer-first), so `outer`
  // must precede `inner` and fully contain it. Pull the two "X" events'
  // ts/dur with a regex over the one-event-per-line layout.
  const std::regex event_re(
      "\\{\"name\":\"(outer|inner)\",.*\"ts\":([0-9.]+),\"dur\":([0-9.]+)");
  std::map<std::string, std::pair<double, double>> spans;
  auto begin = std::sregex_iterator(json.begin(), json.end(), event_re);
  std::size_t order = 0;
  for (auto it = begin; it != std::sregex_iterator(); ++it, ++order) {
    const std::smatch& match = *it;
    if (order == 0) {
      EXPECT_EQ(match[1].str(), "outer") << "outer must sort first";
    }
    spans[match[1].str()] = {std::stod(match[2].str()),
                             std::stod(match[3].str())};
  }
  ASSERT_EQ(spans.size(), 2u) << json;
  const auto [outer_ts, outer_dur] = spans.at("outer");
  const auto [inner_ts, inner_dur] = spans.at("inner");
  EXPECT_LE(outer_ts, inner_ts);
  EXPECT_GE(outer_ts + outer_dur, inner_ts + inner_dur);
}

TEST(ObsTrace, SpansOutsideAnActiveTraceAreDropped) {
  SKIP_WHEN_COMPILED_OUT();
  { obs::TraceSpan before("span_before_start", "test"); }
  obs::start_tracing();
  const std::string json = obs::stop_tracing_to_json();
  EXPECT_EQ(json.find("span_before_start"), std::string::npos) << json;
  EXPECT_FALSE(obs::tracing_enabled());
}

// --- optimizer evaluation accounting ---------------------------------------

TEST(ObsOptimizer, OptimizeAllReportsExactEvaluationTotalsOverAGrid) {
  SKIP_WHEN_COMPILED_OUT();
  using core::JobParams;
  using core::Strategy;
  std::vector<JobParams> grid;
  for (const double deadline : {90.0, 100.0, 120.0}) {
    JobParams params = testing::default_job();
    params.deadline = deadline;
    grid.push_back(params);
  }
  const core::Economics econ = testing::default_econ();

  // Ground truth: optimize_all runs the same memoized search per strategy
  // as three standalone optimize() calls, so the process-wide counters must
  // advance by exactly the per-result sums — no hidden re-evaluation.
  std::uint64_t expected_calls = 0;
  std::uint64_t expected_evaluations = 0;
  std::uint64_t expected_lookups = 0;
  for (const JobParams& params : grid) {
    for (const Strategy strategy :
         {Strategy::kClone, Strategy::kSpeculativeRestart,
          Strategy::kSpeculativeResume}) {
      const core::OptimizationResult result =
          core::optimize(strategy, params, econ);
      ++expected_calls;
      expected_evaluations += static_cast<std::uint64_t>(result.evaluations);
      expected_lookups += static_cast<std::uint64_t>(result.lookups);
    }
  }

  obs::reset_for_test();
  for (const JobParams& params : grid) {
    core::optimize_all(params, econ);
  }
  const auto all = obs::snapshot();
  const obs::MetricValue* calls = find_metric(all, "core.optimizer.calls");
  const obs::MetricValue* evaluations =
      find_metric(all, "core.optimizer.evaluations");
  const obs::MetricValue* lookups =
      find_metric(all, "core.optimizer.lookups");
  ASSERT_NE(calls, nullptr);
  ASSERT_NE(evaluations, nullptr);
  ASSERT_NE(lookups, nullptr);
  EXPECT_EQ(calls->value, expected_calls);
  EXPECT_EQ(evaluations->value, expected_evaluations);
  EXPECT_EQ(lookups->value, expected_lookups);
}

// --- the hard invariant: instrumentation is off the numeric path -----------

TEST(ObsIntegration, InstrumentedTinySweepMatchesCommittedGoldenBytes) {
  SKIP_WHEN_COMPILED_OUT();
  const std::string dir = temp_path("sweep");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const auto outfile = [&dir](const std::string& name) {
    return dir + "/" + name;
  };
  const std::string base_flags =
      " --threads 4 --no-table --fresh";

  // Plain run (observability idle) vs fully instrumented run.
  const CommandResult plain = run_command(
      kSweeprun + " " + kTinyManifest + base_flags + " --journal " +
      outfile("plain.journal") + " --csv " + outfile("plain.csv") +
      " --json " + outfile("plain.json"));
  ASSERT_EQ(plain.status, 0) << plain.output;
  const CommandResult instrumented = run_command(
      kSweeprun + " " + kTinyManifest + base_flags + " --journal " +
      outfile("obs.journal") + " --csv " + outfile("obs.csv") + " --json " +
      outfile("obs.json") + " --metrics-out " + outfile("metrics.json") +
      " --trace-out " + outfile("trace.json") + " --progress");
  ASSERT_EQ(instrumented.status, 0) << instrumented.output;

  // Reports byte-identical to the committed goldens, journal bytes
  // byte-identical between the two runs.
  EXPECT_EQ(slurp(outfile("plain.csv")), read_golden("tiny.csv"));
  EXPECT_EQ(slurp(outfile("obs.csv")), read_golden("tiny.csv"));
  EXPECT_EQ(slurp(outfile("obs.json")), read_golden("tiny.json"));
  EXPECT_EQ(slurp(outfile("plain.journal")), slurp(outfile("obs.journal")));

  // --progress lines carry the timestamp/thread-id stamp, ending on a final
  // "all cells done" line.
  const std::regex progress_re(
      "\\[\\d{4}-\\d{2}-\\d{2}T\\d{2}:\\d{2}:\\d{2}\\.\\d{3}Z t\\d+\\] "
      "\\[INFO\\] sweep: ");
  EXPECT_TRUE(std::regex_search(instrumented.output, progress_re))
      << instrumented.output;
  EXPECT_NE(instrumented.output.find("sweep: 6/6 cells"), std::string::npos)
      << instrumented.output;

  // The metrics dump is well-formed and spans every instrumented layer
  // (exp, sim, core) with a healthy number of distinct metrics.
  const std::string metrics = slurp(outfile("metrics.json"));
  JsonChecker metrics_checker(metrics);
  EXPECT_TRUE(metrics_checker.valid())
      << metrics_checker.error() << "\n" << metrics;
  std::size_t distinct = 0;
  for (std::size_t at = metrics.find("{\"name\":\"");
       at != std::string::npos;
       at = metrics.find("{\"name\":\"", at + 1)) {
    ++distinct;
  }
  EXPECT_GE(distinct, 12u) << metrics;
  for (const char* name :
       {"exp.sweep.replications", "exp.journal.entries", "exp.pool.tasks",
        "sim.events_fired", "sim.runs", "core.optimizer.evaluations"}) {
    EXPECT_NE(metrics.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing metric " << name << "\n" << metrics;
  }
  // The tiny manifest's replication math is pinned by the goldens: 6 cells
  // x at least 2 replications each, and the journal entry counter must
  // agree with the cell count exactly.
  EXPECT_NE(metrics.find("{\"name\":\"exp.journal.entries\","
                         "\"kind\":\"counter\",\"value\":6}"),
            std::string::npos)
      << metrics;

  // The trace is well-formed Chrome JSON with the expected span names and
  // named thread tracks.
  const std::string trace = slurp(outfile("trace.json"));
  JsonChecker trace_checker(trace);
  EXPECT_TRUE(trace_checker.valid())
      << trace_checker.error() << "\n" << trace;
  for (const char* needle :
       {"\"displayTimeUnit\":\"ms\"", "\"ph\":\"M\"", "\"ph\":\"X\"",
        "\"name\":\"sweep.run\"", "\"name\":\"sweep.rep\"",
        "\"name\":\"sim.run\"", "\"name\":\"journal.append\"",
        "\"name\":\"report.write\"", "\"name\":\"main\"",
        "\"name\":\"pool-0\""}) {
    EXPECT_NE(trace.find(needle), std::string::npos)
        << "missing " << needle << "\n" << trace;
  }

  std::filesystem::remove_all(dir);
}

TEST(ObsIntegration, SecondRunIntoTheSameOutputPathsRewritesThemWhole) {
  SKIP_WHEN_COMPILED_OUT();
  const std::string dir = temp_path("rerun");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string command =
      kSweeprun + " " + kTinyManifest + " --threads 4 --no-table --fresh" +
      " --journal " + dir + "/run.journal --csv " + dir + "/run.csv" +
      " --json " + dir + "/run.json --metrics-out " + dir +
      "/metrics.json --trace-out " + dir + "/trace.json";

  // The second run replaces files the first has just written.
  for (int run = 1; run <= 2; ++run) {
    const CommandResult result = run_command(command);
    ASSERT_EQ(result.status, 0) << "run " << run << "\n" << result.output;
    EXPECT_EQ(slurp(dir + "/run.csv"), read_golden("tiny.csv"))
        << "run " << run;
    EXPECT_EQ(slurp(dir + "/run.json"), read_golden("tiny.json"))
        << "run " << run;
    for (const char* dump : {"/metrics.json", "/trace.json"}) {
      const std::string text = slurp(dir + dump);
      JsonChecker checker(text);
      EXPECT_TRUE(checker.valid())
          << "run " << run << " " << dump << ": " << checker.error();
    }
  }

  std::filesystem::remove_all(dir);
}

TEST(ObsIntegration, SweeprunRejectsObsFlagsWhenCompiledOut) {
  if (obs::compiled_in()) {
    GTEST_SKIP() << "only meaningful for a CHRONOS_OBS=OFF build";
  }
  const CommandResult result =
      run_command(kSweeprun + " " + kTinyManifest + " --metrics-out " +
                  temp_path("never.json"));
  EXPECT_EQ(result.status, 2) << result.output;
  EXPECT_NE(result.output.find("sweeprun: --metrics-out/--trace-out need"),
            std::string::npos)
      << result.output;
}

}  // namespace
}  // namespace chronos
