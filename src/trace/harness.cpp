#include "trace/harness.h"

#include <algorithm>
#include <numeric>

#include "common/error.h"
#include "mapreduce/scheduler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace chronos::trace {

namespace {

const obs::Counter c_runs = obs::counter("sim.runs");
const obs::Timer t_run = obs::timer("sim.run");

/// Feeds a trace's submissions to the scheduler with one pending at a time,
/// in (submit_time, trace index) order: each submission schedules the next
/// as an arrival, so it fires before anything else at its instant.
class SubmissionFeed {
 public:
  SubmissionFeed(const std::vector<TracedJob>& jobs,
                 sim::Simulator& simulator, mapreduce::Scheduler& scheduler)
      : jobs_(jobs),
        order_(jobs.size()),
        simulator_(simulator),
        scheduler_(scheduler) {
    for (const auto& job : jobs) {
      CHRONOS_EXPECTS(job.submit_time >= 0.0,
                      "submit time must be non-negative");
    }
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::sort(order_.begin(), order_.end(),
              [&jobs](std::size_t a, std::size_t b) {
                return jobs[a].submit_time != jobs[b].submit_time
                           ? jobs[a].submit_time < jobs[b].submit_time
                           : a < b;
              });
    schedule_next();
  }
  // Pending events hold `this`.
  SubmissionFeed(const SubmissionFeed&) = delete;
  SubmissionFeed& operator=(const SubmissionFeed&) = delete;

 private:
  void schedule_next() {
    simulator_.arrival_at(jobs_[order_[next_]].submit_time,
                          [this] { submit_next(); });
  }

  void submit_next() {
    scheduler_.submit(jobs_[order_[next_]].spec);
    if (++next_ < order_.size()) {
      schedule_next();
    }
  }

  const std::vector<TracedJob>& jobs_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  sim::Simulator& simulator_;
  mapreduce::Scheduler& scheduler_;
};

}  // namespace

ExperimentConfig ExperimentConfig::large_scale(
    strategies::PolicyKind policy, std::uint64_t seed) {
  ExperimentConfig config;
  config.policy = policy;
  config.seed = seed;
  sim::NodeConfig node;
  node.containers = 64;
  config.cluster = sim::ClusterConfig::uniform(64, node);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
  config.scheduler.estimator = mapreduce::EstimatorKind::kChronos;
  return config;
}

ExperimentConfig ExperimentConfig::testbed(strategies::PolicyKind policy,
                                           std::uint64_t seed) {
  ExperimentConfig config;
  config.policy = policy;
  config.seed = seed;
  sim::NodeConfig node;
  node.containers = 8;  // 8 vCPUs per EC2 node (§VII-A)
  config.cluster = sim::ClusterConfig::uniform(40, node);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
  config.scheduler.estimator = mapreduce::EstimatorKind::kChronos;
  return config;
}

ExperimentResult run_experiment(const std::vector<TracedJob>& jobs,
                                const ExperimentConfig& config) {
  CHRONOS_EXPECTS(!jobs.empty(), "experiment needs at least one job");
  obs::TraceSpan span("sim.run", "sim");
  span.note("jobs", static_cast<double>(jobs.size()));
  const obs::ScopedTimer run_timer(t_run);
  c_runs.add();
  sim::Simulator simulator;
  sim::Cluster cluster(config.cluster);
  auto policy = strategies::make_policy(config.policy, config.policy_options);
  mapreduce::Scheduler scheduler(simulator, cluster, *policy,
                                 config.scheduler, Rng(config.seed));
  // Only the metrics leave this function, so each record is freed as its
  // job completes and memory tracks in-flight jobs, not trace length.
  scheduler.retire_completed_jobs();

  // `jobs` outlives the run: the feed holds a reference, not spec copies.
  SubmissionFeed feed(jobs, simulator, scheduler);
  simulator.run();

  CHRONOS_ENSURES(scheduler.metrics().jobs() == jobs.size(),
                  "not every job completed");
  ExperimentResult result;
  result.policy_name = policy->name();
  result.metrics = scheduler.metrics();
  result.events_executed = simulator.events_executed();
  span.note("events", static_cast<double>(result.events_executed));
  return result;
}

ExperimentResult replay_isolated(const core::JobParams& params,
                                 strategies::PolicyKind policy, long long r,
                                 int copies) {
  params.validate();
  CHRONOS_EXPECTS(r >= 0, "r must be non-negative");
  CHRONOS_EXPECTS(copies >= 1, "replay needs at least one copy");
  mapreduce::JobSpec spec;
  spec.deadline = params.deadline;
  spec.stages = {{.num_tasks = params.num_tasks, .t_min = params.t_min,
                  .beta = params.beta, .tau_est = params.tau_est,
                  .tau_kill = params.tau_kill, .r = r, .deps = {}}};
  std::vector<TracedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(copies));
  for (int i = 0; i < copies; ++i) {
    spec.job_id = i;
    jobs.push_back({1000.0 * i, spec});
  }
  auto config = ExperimentConfig::large_scale(policy);
  config.scheduler.noise = mapreduce::ProgressNoiseConfig::none();
  return run_experiment(jobs, config);
}

}  // namespace chronos::trace
