// Ablation: multi-wave execution (the paper's stated future work).
//
// The analysis of §IV assumes every task's attempts start at t = 0 (one
// wave). When the cluster has fewer containers than attempts, tasks queue
// and execute in waves; the single-wave closed forms then overestimate
// PoCD. This bench shrinks the cluster below the per-job attempt demand and
// measures how the strategies degrade — quantifying how much headroom the
// multi-wave extension would need to recover.
#include <cstdio>

#include "bench_util.h"
#include "trace/harness.h"
#include "trace/planner.h"
#include "trace/workload.h"

namespace {

using namespace chronos;  // NOLINT
using strategies::PolicyKind;

constexpr double kTheta = 1e-4;

std::vector<trace::TracedJob> make_jobs(PolicyKind policy,
                                        const trace::SpotPriceModel& prices) {
  // One benchmark, jobs big enough that Clone's r+1 copies exceed small
  // clusters: 40 tasks per job.
  const auto& profile = trace::benchmark("Sort");
  std::vector<trace::TracedJob> jobs;
  for (int i = 0; i < 60; ++i) {
    trace::TracedJob job;
    job.submit_time = 400.0 * static_cast<double>(i);  // no inter-job load
    job.spec = profile.make_job(i, 40);
    job.spec.deadline = 160.0;
    auto& stage = job.spec.stage(0);
    stage.tau_est = 40.0;
    stage.tau_kill = 80.0;
    trace::PlannerConfig planner;
    planner.theta = kTheta;
    if (trace::has_analytic_strategy(policy)) {
      plan_staged_job(job, policy, planner, prices);
      // Planning rewrites the taus from factors; restore the absolute ones.
      stage.tau_est = 40.0;
      stage.tau_kill = 80.0;
    }
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace

int main() {
  const trace::SpotPriceModel prices;

  std::printf(
      "Ablation: waves (container capacity below per-job attempt demand)\n"
      "  60 jobs x 40 tasks, D=160s; single-wave analysis plans r\n\n");

  bench::Table table({"Strategy", "containers", "waves(approx)", "PoCD",
                      "Cost"});
  for (const char* name : {"clone", "s-restart", "s-resume"}) {
    const PolicyKind policy = *strategies::policy_from_name(name);
    for (const int containers : {160, 80, 40, 20}) {
      auto jobs = make_jobs(policy, prices);
      trace::ExperimentConfig config;
      config.policy = policy;
      config.seed = 71;
      sim::NodeConfig node;
      node.containers = containers / 10;
      config.cluster = sim::ClusterConfig::uniform(10, node);
      config.scheduler.noise = mapreduce::ProgressNoiseConfig::realistic();
      const auto result = run_experiment(jobs, config);
      // Rough wave count: 40 original attempts per job over the capacity.
      const double waves =
          40.0 / static_cast<double>(containers) * 1.0;
      table.add_row({result.policy_name, bench::fmt_int(containers),
                     bench::fmt(std::max(1.0, waves), 1),
                     bench::fmt(result.pocd()),
                     bench::fmt(result.mean_cost(), 1)});
    }
  }
  table.print();
  std::printf(
      "\nExpected: with capacity >= (r+1) x tasks all strategies match the\n"
      "single-wave analysis; as containers shrink, queueing forms waves and\n"
      "PoCD collapses — Clone first (it needs (r+1) x tasks containers),\n"
      "then the speculative strategies. This is the regime the paper's\n"
      "future work (multi-wave execution) targets.\n");
  return 0;
}
