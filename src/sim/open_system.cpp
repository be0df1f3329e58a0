#include "sim/open_system.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/planner.h"
#include "sim/simulator.h"

namespace chronos::sim {

namespace {

const obs::Counter c_runs = obs::counter("open.runs");
const obs::Counter c_arrivals = obs::counter("open.arrivals");
const obs::Counter c_admitted = obs::counter("open.admitted");
const obs::Counter c_degraded = obs::counter("open.degraded");
const obs::Counter c_rejected = obs::counter("open.rejected");
const obs::Counter c_completed = obs::counter("open.completed");
const obs::Counter c_misses = obs::counter("open.deadline_misses");
const obs::Gauge g_in_flight = obs::gauge("open.in_flight");
const obs::Timer t_run = obs::timer("open.run");
const obs::Timer t_plan = obs::timer("open.plan");

// Indexed by strategies::PolicyKind.
const std::array<obs::Counter, 6> kPlanCounters = {
    obs::counter("open.plan.hadoop_ns"), obs::counter("open.plan.hadoop_s"),
    obs::counter("open.plan.mantri"),    obs::counter("open.plan.clone"),
    obs::counter("open.plan.s_restart"), obs::counter("open.plan.s_resume")};

/// Clamped time-weighted integral of a piecewise-constant signal over
/// [start, end]: update(t, v) closes the previous level at t and opens v;
/// mean() closes the signal at `end` and returns area / (end - start).
/// Updates outside the window contribute nothing.
class WindowedArea {
 public:
  WindowedArea(double start, double end)
      : start_(start), end_(end), last_(start) {}

  void update(double now, double value) {
    integrate_to(now);
    value_ = value;
  }

  double mean() {
    integrate_to(end_);
    return area_ / (end_ - start_);
  }

 private:
  void integrate_to(double now) {
    const double t = std::clamp(now, start_, end_);
    if (t > last_) {
      area_ += value_ * (t - last_);
      last_ = t;
    }
  }

  double start_;
  double end_;
  double last_;
  double value_ = 0.0;
  double area_ = 0.0;
};

class OpenEngine {
 public:
  explicit OpenEngine(const OpenSystemConfig& config)
      : config_(config),
        master_(config.seed),
        arrival_rng_(master_.split()),
        shape_rng_(master_.split()),
        cluster_(config.cluster),
        // admit() names each job's policy; the configured one is only the
        // scheduler's default.
        scheduler_(simulator_, cluster_, backend(config.policy),
                   config.scheduler, Rng(master_.split_seed())),
        prices_(config.prices),
        planner_(serve::PlannerServiceConfig{config.planner,
                                             config.plan_cache}),
        arrival_gap_(config.arrivals.rate),
        busy_area_(config.warm_up, config.duration),
        queue_area_(config.warm_up, config.duration),
        jobs_area_(config.warm_up, config.duration) {
    scheduler_.retire_completed_jobs(
        [this](int job, const JobOutcome& outcome) {
          on_complete(job, outcome);
        });
    cluster_.set_occupancy_observer([this](int busy, std::size_t waiting) {
      const double now = simulator_.now();
      busy_area_.update(now, static_cast<double>(busy));
      queue_area_.update(now, static_cast<double>(waiting));
    });
  }

  OpenSystemResult run() {
    obs::TraceSpan span("open.run", "sim");
    const obs::ScopedTimer run_timer(t_run);
    c_runs.add();
    schedule_arrival_after(0.0);
    simulator_.run();
    return finalize(span);
  }

 private:
  void on_arrival(double t) {
    ++result_.arrivals;
    c_arrivals.add();
    // Arrivals are only ever scheduled up to the horizon, so in-window
    // means "past warm-up".
    const bool measured = t >= config_.warm_up;
    if (measured) {
      ++result_.window_arrivals;
    }

    mapreduce::JobSpec spec =
        trace::sample_job_spec(config_.workload, next_job_id_++, shape_rng_);
    strategies::PolicyKind kind = config_.policy;
    {
      const obs::ScopedTimer plan_timer(t_plan);
      serve::PlanRequest request;
      request.spec = &spec;
      request.price = prices_.price_at(t);
      request.auto_strategy = config_.auto_strategy;
      request.policy = kind;
      kind = planner_.plan(request).kind;
    }
    // The pricing clock is the arrival time — never the trace-generation
    // time a sampled spec may carry, and never a later admission instant.
    CHRONOS_ENSURES(spec.price == prices_.price_at(t),
                    "arrival priced off its arrival-time spot price");
    if (measured) {
      // Root-stage view under the whole job deadline — the baseline the
      // planner's r_min_from_baseline mode computes for single-stage jobs.
      baseline_pocd_.add(trace::baseline_pocd(spec.stage(0), spec.deadline));
    }

    switch (admit_decision(spec)) {
      case AdmissionDecision::kReject:
        ++result_.rejected;
        c_rejected.add();
        break;
      case AdmissionDecision::kDegrade:
        kind = strategies::PolicyKind::kHadoopNS;
        for (auto& st : spec.stages) {
          st.r = 0;
        }
        ++result_.degraded;
        c_degraded.add();
        [[fallthrough]];
      case AdmissionDecision::kAdmit:
        admit(spec, kind, measured);
        break;
    }

    schedule_arrival_after(t);
  }

  /// Draws the next Poisson arrival after `now`; arrivals past the horizon
  /// are never scheduled.
  void schedule_arrival_after(double now) {
    const double next = now + arrival_gap_(arrival_rng_);
    if (next <= config_.duration) {
      simulator_.at(next, [this, next] { on_arrival(next); });
    }
  }

  void admit(const mapreduce::JobSpec& spec, strategies::PolicyKind kind,
             bool measured) {
    ++result_.admitted;
    c_admitted.add();
    if (measured) {
      ++result_.window_admitted;
    }
    result_.mix[kind] += 1;
    kPlanCounters[static_cast<std::size_t>(kind)].add();

    scheduler_.submit(spec, backend(kind));
    ++in_flight_;
    jobs_area_.update(simulator_.now(), static_cast<double>(in_flight_));
    g_in_flight.update(static_cast<std::uint64_t>(in_flight_));
    result_.in_flight_max = std::max(
        result_.in_flight_max, static_cast<std::uint64_t>(in_flight_));
    result_.live_jobs_max =
        std::max(result_.live_jobs_max,
                 static_cast<std::uint64_t>(scheduler_.live_jobs()));
  }

  /// Counts a completed job; measures it when it arrived in the window.
  void on_complete(int job, const JobOutcome& outcome) {
    ++result_.completed;
    c_completed.add();
    --in_flight_;
    jobs_area_.update(simulator_.now(), static_cast<double>(in_flight_));

    // The job was submitted at its arrival instant, so in-window arrivals
    // are exactly the records submitted past warm-up.
    if (scheduler_.job(job).submit_time >= config_.warm_up) {
      measured_.record(outcome);
      sojourn_.add(outcome.completion_time);
      if (!outcome.met_deadline) {
        c_misses.add();
      }
    }
  }

  /// One policy per strategy, created on first use and shared by every job
  /// admitted under it.
  mapreduce::SpeculationPolicy& backend(strategies::PolicyKind kind) {
    auto& slot = backends_[static_cast<std::size_t>(kind)];
    if (!slot) {
      slot = strategies::make_policy(kind);
    }
    return *slot;
  }

  AdmissionDecision admit_decision(const mapreduce::JobSpec& spec) const {
    return admission_decide(
        spec, static_cast<double>(cluster_.pending_requests()),
        static_cast<double>(cluster_.idle_containers()),
        static_cast<double>(cluster_.total_containers()));
  }

  OpenSystemResult finalize(obs::TraceSpan& span) {
    result_.window = config_.duration - config_.warm_up;
    result_.offered_rate =
        static_cast<double>(result_.window_arrivals) / result_.window;
    result_.admitted_rate =
        static_cast<double>(result_.window_admitted) / result_.window;
    result_.utilization =
        busy_area_.mean() / static_cast<double>(cluster_.total_containers());
    result_.mean_jobs_in_system = jobs_area_.mean();
    result_.mean_queue_depth = queue_area_.mean();
    if (sojourn_.count() > 0) {
      result_.mean_sojourn = sojourn_.mean();
    }
    if (baseline_pocd_.count() > 0) {
      result_.mean_baseline_pocd = baseline_pocd_.mean();
    }
    result_.metrics = measured_;
    const serve::PlannerServiceStats planner_stats = planner_.stats();
    result_.plan_cache_hits = planner_stats.hits;
    result_.plan_cache_misses = planner_stats.misses;
    result_.events_executed = simulator_.events_executed();
    // The queue runs dry, so the last completion may lie past the horizon;
    // when it lies before, the run still spans the whole horizon.
    result_.end_time = std::max(simulator_.now(), config_.duration);

    CHRONOS_ENSURES(result_.arrivals == result_.admitted + result_.rejected,
                    "arrival conservation violated");
    CHRONOS_ENSURES(result_.admitted == result_.completed,
                    "admitted-job conservation violated");
    CHRONOS_ENSURES(scheduler_.live_jobs() == 0,
                    "completed jobs left a scheduler record");

    span.note("arrivals", static_cast<double>(result_.arrivals));
    span.note("events", static_cast<double>(result_.events_executed));
    return result_;
  }

  const OpenSystemConfig& config_;
  Rng master_;
  Rng arrival_rng_;
  Rng shape_rng_;
  Simulator simulator_;
  Cluster cluster_;
  std::array<std::unique_ptr<mapreduce::SpeculationPolicy>, 6> backends_;
  mapreduce::Scheduler scheduler_;
  trace::SpotPriceModel prices_;
  serve::PlannerService planner_;
  ExponentialSampler arrival_gap_;
  WindowedArea busy_area_;
  WindowedArea queue_area_;
  WindowedArea jobs_area_;

  OpenSystemResult result_;
  RunMetrics measured_;
  stats::RunningStats sojourn_;
  stats::RunningStats baseline_pocd_;
  std::int64_t in_flight_ = 0;
  int next_job_id_ = 0;
};

}  // namespace

AdmissionDecision admission_decide(const mapreduce::JobSpec& spec,
                                   double backlog, double idle_containers,
                                   double total_containers) {
  if (backlog + static_cast<double>(spec.total_tasks()) >
      4.0 * total_containers) {
    return AdmissionDecision::kReject;
  }
  const double headroom = std::max(0.0, idle_containers - backlog);
  // Speculative demand over EVERY stage by construction: a job dominated by
  // a late stage speculates that stage's r extra attempts per task and must
  // not slip past the headroom check on the strength of a tiny root stage.
  double demand = 0.0;
  for (const auto& st : spec.stages) {
    demand += static_cast<double>(st.r) * static_cast<double>(st.num_tasks);
  }
  if (demand > headroom) {
    return AdmissionDecision::kDegrade;
  }
  return AdmissionDecision::kAdmit;
}

void OpenSystemConfig::validate() const {
  CHRONOS_EXPECTS(std::isfinite(arrivals.rate) && arrivals.rate > 0.0,
                  "arrival rate must be positive and finite");
  workload.validate();
  plan_cache.validate();
  CHRONOS_EXPECTS(std::isfinite(duration) && duration > 0.0,
                  "open-system duration must be positive and finite");
  CHRONOS_EXPECTS(std::isfinite(warm_up) && warm_up >= 0.0 &&
                      warm_up < duration,
                  "warm_up must lie in [0, duration)");
}

OpenSystemResult run_open_system(const OpenSystemConfig& config) {
  config.validate();
  OpenEngine engine(config);
  return engine.run();
}

}  // namespace chronos::sim
