// ledger_probe: times calls into each layer's public functions from outside
// the program, for the perf ledger (bench/ledger/run.py).
//
//   ledger_probe setup MANIFEST --threads N
//       Runs the sweep engine's set-up phase for MANIFEST exactly as
//       sweeprun does (manifest load, trace generation, baseline R_min,
//       per-cell planning on N pool threads) and stops at the barrier before
//       the first replication. Prints `setup_done_monotonic_ns <t>`, the
//       CLOCK_MONOTONIC time at that barrier, so the caller can time process
//       start plus set-up from outside.
//
//   ledger_probe layers MANIFEST --threads N --depth D --cancel-ratio C
//       Prints one JSON object of per-layer timings on the workload's own
//       inputs: shape sampling and trace generation (trace), Algorithm 1
//       per job (core), PlannerService::plan in the workload's cache mode
//       and with the cache off (serve), the event queue at depth D with
//       cancel share C (sim.queue), container grants on the workload's
//       cluster (sim.cluster), and, for closed workloads, a replay of a job
//       prefix of every policy's planned trace with every policy hook and
//       policy timer timed (strategies). The replay must reproduce
//       trace::run_experiment's RunMetrics exactly; "replay_matches" says
//       whether it did.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/optimizer.h"
#include "exp/manifest.h"
#include "exp/sweep.h"
#include "mapreduce/scheduler.h"
#include "serve/planner.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/open_system.h"
#include "sim/simulator.h"
#include "strategies/policies.h"
#include "trace/google_trace.h"
#include "trace/harness.h"
#include "trace/planner.h"
#include "trace/spot_price.h"

namespace {

using namespace chronos;  // NOLINT
using Clock = std::chrono::steady_clock;

std::int64_t elapsed_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

double quantile(std::vector<std::int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return static_cast<double>(values[index]);
}

// --- policy timing ----------------------------------------------------------
//
// Policy work runs in two places: the SpeculationPolicy hooks the scheduler
// calls, and the timer callbacks policies arm through
// SchedulerApi::schedule_after, which later fire as plain simulator events.
// TimedPolicy covers the first; the link-time wrap of schedule_after (see
// CMakeLists.txt) covers the second. Nested policy work (a hook reached from
// inside a policy timer) is counted once, at the outermost level.

std::int64_t g_policy_ns = 0;
int g_policy_depth = 0;

class PolicyTimer {
 public:
  PolicyTimer() {
    if (g_policy_depth++ == 0) {
      start_ = Clock::now();
    }
  }
  ~PolicyTimer() {
    if (--g_policy_depth == 0) {
      g_policy_ns += elapsed_ns(start_);
    }
  }
  PolicyTimer(const PolicyTimer&) = delete;
  PolicyTimer& operator=(const PolicyTimer&) = delete;

 private:
  Clock::time_point start_{};
};

class TimedPolicy final : public mapreduce::SpeculationPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<mapreduce::SpeculationPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  int initial_attempts(const mapreduce::JobSpec& spec,
                       int stage) const override {
    const PolicyTimer timer;
    return inner_->initial_attempts(spec, stage);
  }
  void on_job_start(int job, mapreduce::SchedulerApi& api) override {
    const PolicyTimer timer;
    inner_->on_job_start(job, api);
  }
  void on_task_completed(int job, int task,
                         mapreduce::SchedulerApi& api) override {
    const PolicyTimer timer;
    inner_->on_task_completed(job, task, api);
  }
  void on_stage_start(int job, int stage,
                      mapreduce::SchedulerApi& api) override {
    const PolicyTimer timer;
    inner_->on_stage_start(job, stage, api);
  }
  void on_job_completed(int job, mapreduce::SchedulerApi& api) override {
    const PolicyTimer timer;
    inner_->on_job_completed(job, api);
  }

 private:
  std::unique_ptr<mapreduce::SpeculationPolicy> inner_;
};

}  // namespace

// SchedulerApi::schedule_after(double, std::function<void()>) under
// `-Wl,--wrap`: calls from the policies land here and the original is
// reachable as the __real_ symbol. The Itanium C++ ABI passes the by-value
// std::function as a pointer to a caller-owned temporary, which the caller
// also destroys.
void wrapped_schedule_after(chronos::mapreduce::SchedulerApi* api,
                            double delay, std::function<void()>* fn) asm(
    "__wrap__ZN7chronos9mapreduce12SchedulerApi14schedule_afterEdSt8function"
    "IFvvEE");
void real_schedule_after(chronos::mapreduce::SchedulerApi* api, double delay,
                         std::function<void()>* fn) asm(
    "__real__ZN7chronos9mapreduce12SchedulerApi14schedule_afterEdSt8function"
    "IFvvEE");

void wrapped_schedule_after(chronos::mapreduce::SchedulerApi* api,
                            double delay, std::function<void()>* fn) {
  std::function<void()> timed = [inner = std::move(*fn)] {
    const PolicyTimer timer;
    inner();
  };
  real_schedule_after(api, delay, &timed);
}

namespace {

// --- set-up phase -----------------------------------------------------------

struct Cell {
  exp::SweepPoint point;
  exp::SharedCell shared;
};

/// Runs run_sweep with the manifest's own hooks, cancelling at the barrier
/// that ends the set-up phase: SweepOptions::cancel is checked before the
/// first replication round, so no replication runs. Returns every cell's
/// point and set-up product, in cell order.
std::vector<Cell> run_setup(const exp::Manifest& manifest, int threads) {
  exp::SweepHooks hooks = exp::make_hooks(manifest);
  const exp::CellSetup setup = hooks.setup;
  std::mutex mu;
  std::vector<Cell> cells;
  std::atomic<bool> stop{false};
  hooks.setup = [&](const exp::SweepPoint& point) {
    exp::SharedCell shared = setup(point);
    {
      const std::lock_guard<std::mutex> lock(mu);
      cells.push_back({point, shared});
    }
    stop.store(true);
    return shared;
  };
  exp::SweepOptions options;
  options.threads = threads;
  options.cancel = &stop;
  try {
    exp::run_sweep(manifest.spec, hooks, options);
  } catch (const exp::SweepCancelled&) {
  }
  if (cells.size() != manifest.spec.num_cells()) {
    throw std::runtime_error("set-up did not reach every cell");
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.point.cell < b.point.cell;
  });
  return cells;
}

// --- workload shapes --------------------------------------------------------

/// The trace template a closed cell generates its trace from (the same
/// axis bindings exp::make_hooks resolves).
trace::TraceConfig closed_template(const exp::Manifest& manifest,
                                   const exp::SweepPoint& point) {
  trace::TraceConfig config = manifest.trace;
  if (manifest.trace_beta.has_value()) {
    config.beta_lo = config.beta_hi = manifest.trace_beta->resolve(point);
  }
  if (manifest.trace_deadline_factor.has_value()) {
    config.deadline_factor_lo = config.deadline_factor_hi =
        manifest.trace_deadline_factor->resolve(point);
  }
  for (const exp::ManifestStage& stage : manifest.stages) {
    mapreduce::StageSpec st;
    st.num_tasks = static_cast<int>(std::llround(stage.tasks.resolve(point)));
    st.t_min = stage.t_min.resolve(point);
    st.beta = stage.beta.resolve(point);
    st.deps = stage.deps;
    config.extra_stages.push_back(std::move(st));
  }
  return config;
}

trace::PlannerConfig closed_planner(const exp::Manifest& manifest,
                                    const exp::SweepPoint& point) {
  trace::PlannerConfig planner;
  planner.theta = manifest.planner_theta.resolve(point);
  if (manifest.planner_tau_est_factor.has_value()) {
    planner.tau_est_factor = manifest.planner_tau_est_factor->resolve(point);
  }
  if (manifest.planner_tau_kill_factor.has_value()) {
    planner.tau_kill_factor = manifest.planner_tau_kill_factor->resolve(point);
  }
  return planner;
}

/// One planning problem as the workload poses it.
struct Shape {
  mapreduce::JobSpec spec;
  double price = 1.0;
  trace::PlannerConfig planner;
  strategies::PolicyKind policy = strategies::PolicyKind::kSResume;
  bool auto_strategy = false;
  std::size_t service = 0;  ///< index of the cache-off service for `planner`
};

/// Times Algorithm 1 for one job, as the planner runs it: one optimize()
/// for a single-stage job (optimize_all under `plan = auto`), one per stage
/// along the critical-path split otherwise. Staged planning writes into its
/// spec, so it plans a copy made before the clock starts.
std::int64_t time_core(const Shape& shape) {
  const auto& planner = shape.planner;
  if (shape.spec.num_stages() > 1) {
    mapreduce::JobSpec scratch = shape.spec;
    const auto start = Clock::now();
    trace::plan_staged_spec(scratch, shape.policy, planner, shape.price);
    return elapsed_ns(start);
  }
  const auto start = Clock::now();
  const auto econ = trace::to_economics(shape.spec, planner, shape.price);
  if (shape.auto_strategy) {
    const auto params = trace::to_job_params(
        shape.spec, planner, core::Strategy::kSpeculativeResume);
    core::optimize_all(params, econ, planner.optimizer);
  } else {
    const core::Strategy strategy = trace::analytic_strategy(shape.policy);
    const auto params = trace::to_job_params(shape.spec, planner, strategy);
    core::optimize(strategy, params, econ, planner.optimizer);
  }
  return elapsed_ns(start);
}

std::int64_t time_serve(serve::PlannerService& service, const Shape& shape) {
  mapreduce::JobSpec spec = shape.spec;
  serve::PlanRequest request;
  request.spec = &spec;
  request.price = shape.price;
  request.auto_strategy = shape.auto_strategy;
  request.policy = shape.policy;
  const auto start = Clock::now();
  service.plan(request);
  return elapsed_ns(start);
}

/// Times Algorithm 1 and the shape's cache-off service on every shape, back
/// to back, and records both and their difference: pairing the two calls
/// cancels slow phases of a shared machine, which unpaired medians do not.
/// The order alternates so that neither call always runs on caches the
/// other warmed.
void time_planning(
    const std::vector<Shape>& shapes,
    const std::vector<std::unique_ptr<serve::PlannerService>>& uncached,
    std::vector<std::int64_t>& core_ns, std::vector<std::int64_t>& serve_ns,
    std::vector<std::int64_t>& overhead_ns) {
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Shape& shape = shapes[i];
    serve::PlannerService& service = *uncached[shape.service];
    std::int64_t core = 0;
    std::int64_t serve = 0;
    if (i % 2 == 0) {
      core = time_core(shape);
      serve = time_serve(service, shape);
    } else {
      serve = time_serve(service, shape);
      core = time_core(shape);
    }
    core_ns.push_back(core);
    serve_ns.push_back(serve);
    overhead_ns.push_back(serve - core);
  }
}

// --- sim layer micro-benchmarks ---------------------------------------------

/// Event-queue cost per event at a steady depth: every step schedules one
/// event (a 24-byte capture, like the scheduler's attempt events) and then
/// either pops and fires the earliest one or, with probability
/// `cancel_ratio`, cancels a random pending one.
double queue_ns_per_event(std::size_t depth, double cancel_ratio,
                          std::uint64_t seed) {
  struct Sink {
    std::vector<std::uint8_t> fired;
    double total = 0.0;
  } sink;
  sim::EventQueue queue;
  Rng rng(seed);
  std::vector<std::pair<sim::EventId, std::size_t>> pending;
  double now = 0.0;
  const auto schedule = [&] {
    const std::size_t index = sink.fired.size();
    sink.fired.push_back(0);
    const double payload = rng.uniform();
    const sim::EventId id =
        queue.schedule(now + rng.exponential(1.0), [s = &sink, index, payload] {
          s->fired[index] = 1;
          s->total += payload;
        });
    pending.emplace_back(id, index);
  };
  const auto step = [&] {
    schedule();
    if (rng.uniform() < cancel_ratio) {
      while (!pending.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
        const auto [id, index] = pending[pick];
        pending[pick] = pending.back();
        pending.pop_back();
        if (sink.fired[index] == 0) {
          queue.cancel(id);
          break;
        }
      }
    } else {
      auto fired = queue.pop();
      now = fired.time;
      fired.fn();
    }
  };
  for (std::size_t i = 0; i < depth; ++i) {
    schedule();
  }
  constexpr std::size_t kWarmup = 1 << 16;
  constexpr std::size_t kSteps = 1 << 21;
  for (std::size_t i = 0; i < kWarmup; ++i) {
    step();
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kSteps; ++i) {
    step();
  }
  const double ns = static_cast<double>(elapsed_ns(start));
  if (sink.total < 0.0) {
    std::abort();  // keeps the callbacks' work observable
  }
  return ns / static_cast<double>(kSteps);
}

/// Cost of one container grant plus its release on the workload's cluster,
/// with an occupancy observer attached and half the containers held busy.
double cluster_ns_per_grant(const sim::ClusterConfig& config) {
  sim::Cluster cluster(config);
  std::uint64_t observed = 0;
  cluster.set_occupancy_observer([&observed](int busy, std::size_t waiting) {
    observed += static_cast<std::uint64_t>(busy) + waiting;
  });
  // The grant callback captures 16 bytes, like the scheduler's
  // (scheduler, job, attempt) grant.
  struct Granted {
    int node = -1;
    int job = 0;
    int attempt = 0;
  } granted;
  const auto request = [&cluster, &granted](int job, int attempt) {
    cluster.request_container([&granted, job, attempt](int node) {
      granted = {node, job, attempt};
    });
  };
  for (int i = 0; i < cluster.total_containers() / 2; ++i) {
    request(i, 0);
  }
  constexpr int kGrants = 1 << 20;
  const auto start = Clock::now();
  for (int i = 0; i < kGrants; ++i) {
    request(i, i & 7);
    cluster.release_container(granted.node);
  }
  const double ns = static_cast<double>(elapsed_ns(start));
  if (observed == 0 || granted.job != kGrants - 1) {
    std::abort();
  }
  return ns / kGrants;
}

// --- scheduler + policy replay ----------------------------------------------

struct Replay {
  std::int64_t total_ns = 0;
  std::int64_t policy_ns = 0;
  bool matches = false;
};

/// Replays `jobs` exactly as trace::run_experiment does, with the policy
/// behind TimedPolicy, then checks the RunMetrics against run_experiment.
Replay replay(const std::vector<trace::TracedJob>& jobs,
              const trace::ExperimentConfig& config) {
  Replay out;
  g_policy_ns = 0;
  const auto start = Clock::now();
  sim::Simulator simulator;
  sim::Cluster cluster(config.cluster);
  TimedPolicy policy(strategies::make_policy(config.policy,
                                             config.policy_options));
  mapreduce::Scheduler scheduler(simulator, cluster, policy, config.scheduler,
                                 Rng(config.seed));
  for (const auto& job : jobs) {
    simulator.at(job.submit_time,
                 [&scheduler, spec = job.spec] { scheduler.submit(spec); });
  }
  simulator.run();
  out.total_ns = elapsed_ns(start);
  out.policy_ns = g_policy_ns;
  const sim::RunMetrics& got = scheduler.metrics();
  const trace::ExperimentResult want = trace::run_experiment(jobs, config);
  out.matches = got.jobs() == jobs.size() &&
                got.pocd() == want.metrics.pocd() &&
                got.mean_cost() == want.metrics.mean_cost() &&
                got.mean_machine_time() == want.metrics.mean_machine_time();
  return out;
}

std::string policy_key(strategies::PolicyKind kind) {
  std::string name = strategies::to_string(kind);
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

// --- commands ---------------------------------------------------------------

struct Args {
  std::string command;
  std::string manifest;
  int threads = 1;
  std::size_t depth = 256;
  double cancel_ratio = 0.5;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ledger_probe setup MANIFEST --threads N\n"
               "       ledger_probe layers MANIFEST --threads N --depth D "
               "--cancel-ratio C\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 3) {
    usage();
  }
  Args args;
  args.command = argv[1];
  args.manifest = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--threads") {
      args.threads = std::atoi(value);
    } else if (flag == "--depth") {
      args.depth = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--cancel-ratio") {
      args.cancel_ratio = std::atof(value);
    } else {
      usage();
    }
  }
  if ((argc - 3) % 2 != 0 || args.threads < 1 || args.depth < 1 ||
      !(args.cancel_ratio >= 0.0 && args.cancel_ratio < 1.0)) {
    usage();
  }
  return args;
}

int run_setup_command(const Args& args) {
  const exp::Manifest manifest = exp::load_manifest(args.manifest);
  run_setup(manifest, args.threads);
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &now);
  std::printf("setup_done_monotonic_ns %lld\n",
              static_cast<long long>(now.tv_sec) * 1000000000LL + now.tv_nsec);
  std::fflush(stdout);
  // Freeing the planned traces is not set-up; skip it.
  std::_Exit(0);
}

int run_layers_command(const Args& args) {
  const exp::Manifest manifest = exp::load_manifest(args.manifest);
  const std::vector<Cell> cells = run_setup(manifest, args.threads);
  const exp::SweepHooks hooks = exp::make_hooks(manifest);
  const std::uint64_t seed = manifest.spec.seed;
  const bool open = manifest.arrivals.has_value();
  std::map<std::string, double> out;

  // Per-cell instances: the configs every replication of the cell runs.
  std::vector<exp::CellInstance> instances;
  for (const Cell& cell : cells) {
    instances.push_back(hooks.run(cell.point, seed, cell.shared));
  }

  // trace: shape sampling (the open engine's per-arrival kernel) and, for
  // closed workloads, one cell's whole-trace generation.
  const trace::TraceConfig shape_template =
      open ? instances.front().open_system->workload
           : closed_template(manifest, cells.front().point);
  {
    constexpr int kSamples = 50000;
    Rng rng(seed);
    std::uint64_t tasks = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kSamples; ++i) {
      tasks += static_cast<std::uint64_t>(
          trace::sample_job_spec(shape_template, i, rng).total_tasks());
    }
    out["trace.sample_ns"] =
        static_cast<double>(elapsed_ns(start)) / kSamples;
    if (tasks == 0) {
      std::abort();
    }
  }
  {
    // Open workloads never generate a whole trace; their template's
    // num_jobs still sizes one, which times the same per-job kernel in bulk.
    std::vector<std::int64_t> ns;
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      const auto jobs = trace::generate_trace(shape_template);
      ns.push_back(elapsed_ns(start));
    }
    out["trace.generate_s"] = quantile(ns, 0.5) / 1e9;
  }

  // core + serve: the workload's planning problems. Closed cells plan
  // their own trace's jobs (round-robin over the cells whose policy has an
  // analytic strategy); open cells plan freshly sampled arrivals. Every
  // distinct planner config gets its own cache-off service.
  std::vector<Shape> shapes;
  std::vector<std::unique_ptr<serve::PlannerService>> uncached;
  if (open) {
    constexpr int kShapes = 20000;
    const sim::OpenSystemConfig& config = *instances.front().open_system;
    const trace::SpotPriceModel prices(config.prices);
    Rng rng(seed);
    for (int i = 0; i < kShapes; ++i) {
      Shape shape;
      shape.spec = trace::sample_job_spec(config.workload, i, rng);
      shape.price = prices.price_at(static_cast<double>(i) /
                                    config.arrivals.rate);
      shape.planner = config.planner;
      shape.policy = config.policy;
      shape.auto_strategy = config.auto_strategy;
      shapes.push_back(std::move(shape));
    }
    uncached.push_back(std::make_unique<serve::PlannerService>(
        serve::PlannerServiceConfig{config.planner, {}}));
  } else {
    constexpr std::size_t kShapes = 2000;
    const trace::SpotPriceModel prices;
    std::vector<std::size_t> analytic;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (trace::has_analytic_strategy(cells[c].point.policy)) {
        analytic.push_back(c);
        uncached.push_back(std::make_unique<serve::PlannerService>(
            serve::PlannerServiceConfig{closed_planner(manifest,
                                                       cells[c].point),
                                        {}}));
      }
    }
    for (std::size_t i = 0; !analytic.empty() && i < kShapes; ++i) {
      const std::size_t group = i % analytic.size();
      const Cell& cell = cells[analytic[group]];
      const auto& jobs = *cell.shared.jobs;
      const trace::TracedJob& job = jobs[(i / analytic.size()) % jobs.size()];
      Shape shape;
      shape.spec = job.spec;
      shape.price = prices.price_at(job.submit_time);
      shape.planner = uncached[group]->config().planner;
      shape.policy = cell.point.policy;
      shape.service = group;
      shapes.push_back(std::move(shape));
    }
  }
  std::vector<std::int64_t> core_ns;
  std::vector<std::int64_t> uncached_ns;
  std::vector<std::int64_t> overhead_ns;
  time_planning(shapes, uncached, core_ns, uncached_ns, overhead_ns);
  // serve.plan_ns is the workload's own cache mode. Open workloads replay
  // their arrivals in order so the cache fills as it does in the run;
  // closed sweeps plan in cell set-up without a cache, which is the
  // cache-off service.
  std::vector<std::int64_t> serve_ns;
  if (open) {
    const auto& config = *instances.front().open_system;
    serve::PlannerService cached({config.planner, config.plan_cache});
    for (const Shape& shape : shapes) {
      serve_ns.push_back(time_serve(cached, shape));
    }
  } else {
    serve_ns = uncached_ns;
  }
  out["core.optimize_ns.p50"] = quantile(core_ns, 0.5);
  out["core.optimize_ns.p99"] = quantile(core_ns, 0.99);
  out["core.optimize_ns.samples"] = static_cast<double>(core_ns.size());
  out["serve.plan_ns.p50"] = quantile(serve_ns, 0.5);
  out["serve.plan_ns.p99"] = quantile(serve_ns, 0.99);
  out["serve.plan_ns.samples"] = static_cast<double>(serve_ns.size());
  out["serve.overhead_ns"] = quantile(overhead_ns, 0.5);

  // sim: event queue at the workload's depth and cancel share, container
  // grants on the workload's cluster.
  out["sim.queue.ns_per_event"] =
      queue_ns_per_event(args.depth, args.cancel_ratio, seed);
  out["sim.cluster.ns_per_grant"] = cluster_ns_per_grant(
      open ? instances.front().open_system->cluster
           : instances.front().config.cluster);

  // mapreduce + strategies: a job prefix of the first cell of each policy.
  bool matches = true;
  std::map<std::string, bool> seen;
  for (const char* name :
       {"hadoop-ns", "mantri", "clone", "s-restart", "s-resume"}) {
    out[std::string("strategies.hook_share.") + name] = 0.0;
  }
  if (!open) {
    constexpr std::size_t kPrefixJobs = 150;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string key = policy_key(cells[c].point.policy);
      if (seen[key]) {
        continue;
      }
      seen[key] = true;
      const auto& all = *cells[c].shared.jobs;
      const std::vector<trace::TracedJob> prefix(
          all.begin(),
          all.begin() + static_cast<std::ptrdiff_t>(
                            std::min(kPrefixJobs, all.size())));
      const Replay run = replay(prefix, instances[c].config);
      matches = matches && run.matches;
      out["strategies.hook_share." + key] =
          static_cast<double>(run.policy_ns) /
          static_cast<double>(run.total_ns);
    }
  }

  std::printf("{\"replay_matches\": %s", matches ? "true" : "false");
  for (const auto& [name, value] : out) {
    std::printf(", \"%s\": %.17g", name.c_str(), value);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "setup") {
      return run_setup_command(args);
    }
    if (args.command == "layers") {
      return run_layers_command(args);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ledger_probe: %s\n", error.what());
    return 1;
  }
  usage();
}
