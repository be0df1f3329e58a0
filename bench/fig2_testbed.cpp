// Figure 2 (a, b, c): PoCD, Cost and Utility of Hadoop-NS, Hadoop-S, Clone,
// S-Restart and S-Resume on the four benchmarks (Sort, SecondarySort,
// TeraSort, WordCount), driven by the sweep engine over a categorical
// benchmark axis with replicated cells.
//
// Testbed substitute: 40-node / 8-container simulated cluster (§VII-A).
// 100 jobs of 10 tasks per benchmark; deadlines 100 s (Sort, TeraSort) and
// 150 s (SecondarySort, WordCount); tau_est = 40 s, tau_kill = 80 s;
// theta = 1e-4. The optimal r per job is computed with Algorithm 1.
//
// R_min for the utility report is the measured Hadoop-NS PoCD per benchmark
// (paper §VII-A), so utility is derived from the cell aggregates after the
// sweep; Hadoop-NS itself has utility -inf by construction. Because of this
// cross-cell dependency the --csv/--json exports carry empty utility
// columns — Figure 2(c)'s utility lives in the printed table only.
//
//   ./fig2_testbed [--threads N] [--reps N] [--csv PATH] [--json PATH]
//                  [--journal PATH]
#include <cstdio>
#include <memory>
#include <utility>

#include "bench_util.h"
#include "core/chronos.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "trace/harness.h"
#include "trace/planner.h"
#include "trace/spot_price.h"
#include "trace/workload.h"

namespace {

using namespace chronos;  // NOLINT
using strategies::PolicyKind;

constexpr int kJobs = 100;
constexpr int kTasksPerJob = 10;
constexpr double kTauEst = 40.0;
constexpr double kTauKill = 80.0;
constexpr double kTheta = 1e-4;
constexpr int kDefaultReps = 3;

core::JobParams analytic_params(const mapreduce::JobSpec& spec,
                                core::Strategy strategy) {
  core::JobParams params;
  params.num_tasks = spec.stage(0).num_tasks;
  params.deadline = spec.deadline;
  params.t_min = spec.stage(0).t_min;
  params.beta = spec.stage(0).beta;
  params.tau_est = strategy == core::Strategy::kClone ? 0.0 : kTauEst;
  params.tau_kill = kTauKill;
  params.phi_est = core::default_phi_est(params);
  return params;
}

std::vector<trace::TracedJob> make_jobs(const trace::WorkloadProfile& profile,
                                        PolicyKind policy,
                                        const trace::SpotPriceModel& prices) {
  std::vector<trace::TracedJob> jobs;
  jobs.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    trace::TracedJob job;
    // One job every ~72 s: a lightly loaded testbed, as in the experiments.
    job.submit_time = 72.0 * static_cast<double>(i);
    job.spec = profile.make_job(i, kTasksPerJob);
    job.spec.stage(0).tau_est = kTauEst;
    job.spec.stage(0).tau_kill = kTauKill;
    job.spec.price = prices.price_at(job.submit_time);
    if (trace::has_analytic_strategy(policy)) {
      const auto strategy = trace::analytic_strategy(policy);
      const auto params = analytic_params(job.spec, strategy);
      core::Economics econ;
      econ.price = job.spec.price;
      econ.theta = kTheta;
      econ.r_min = core::pocd_no_speculation(params);
      const auto result = core::optimize(strategy, params, econ);
      job.spec.stage(0).r = result.feasible ? result.r_opt : 1;
    }
    jobs.push_back(job);
  }
  return jobs;
}

/// Utility evaluated on cell means, via the canonical §VII formula.
double utility_of(const exp::CellAggregate& aggregate, double r_min) {
  return sim::utility_from(aggregate.pocd.mean, aggregate.cost.mean, kTheta,
                           r_min);
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  const trace::SpotPriceModel prices;
  const auto& suite = trace::benchmark_suite();

  exp::Axis benchmarks;
  benchmarks.name = "benchmark";
  for (std::size_t i = 0; i < suite.size(); ++i) {
    benchmarks.values.push_back(static_cast<double>(i));
    benchmarks.labels.push_back(suite[i].name);
  }

  exp::SweepSpec spec;
  spec.name = "fig2_testbed";
  spec.policies = {PolicyKind::kHadoopNS, PolicyKind::kHadoopS,
                   PolicyKind::kClone, PolicyKind::kSRestart,
                   PolicyKind::kSResume};
  spec.axes = {benchmarks};
  spec.replications = cli.reps > 0 ? cli.reps : kDefaultReps;
  spec.seed = 17;

  // The job list depends on the cell (policy, benchmark) but not the
  // replication seed: the engine's setup hook builds each cell's jobs once
  // (keyed by the benchmark's axis *index*, never its float value) and the
  // cell's replications share them.
  exp::SweepHooks hooks;
  hooks.setup = [&](const exp::SweepPoint& point) {
    exp::SharedCell shared;
    shared.jobs = std::make_shared<const std::vector<trace::TracedJob>>(
        make_jobs(suite[point.index("benchmark")], point.policy, prices));
    return shared;
  };
  hooks.run = [](const exp::SweepPoint& point, std::uint64_t seed,
                 const exp::SharedCell& shared) {
    exp::CellInstance instance;
    instance.jobs = shared.jobs;
    instance.config = trace::ExperimentConfig::testbed(point.policy, seed);
    return instance;
  };

  std::printf(
      "Figure 2: PoCD / Cost / Utility per benchmark (testbed simulation)\n"
      "  %d jobs x %d tasks, tau_est=%.0fs tau_kill=%.0fs theta=%g; "
      "%d replications/cell\n\n",
      kJobs, kTasksPerJob, kTauEst, kTauKill, kTheta, spec.replications);

  const auto result = exp::run_sweep(spec, hooks, bench::sweep_options(cli));

  // R_min per benchmark: mean Hadoop-NS PoCD of that benchmark's cell.
  std::vector<double> r_min(suite.size(), 0.0);
  for (const auto& cell : result.cells) {
    if (cell.point.policy == PolicyKind::kHadoopNS) {
      r_min[cell.point.index("benchmark")] = cell.aggregate.pocd.mean;
    }
  }

  exp::Table table({"Benchmark", "Strategy", "PoCD", "Cost", "Utility",
                    "mean r"});
  for (std::size_t b = 0; b < suite.size(); ++b) {
    for (const auto& cell : result.cells) {
      if (cell.point.index("benchmark") != b) {
        continue;
      }
      const auto& agg = cell.aggregate;
      table.add_row({suite[b].name, cell.policy_name,
                     bench::fmt(agg.pocd.mean),
                     bench::fmt(agg.cost.mean, 1),
                     bench::fmt(utility_of(agg, r_min[b])),
                     bench::fmt(agg.mean_r.mean, 2)});
    }
  }
  table.print();
  bench::dump_reports(cli, result);
  std::printf(
      "\nExpected shape (paper): Hadoop-NS lowest PoCD; Clone highest PoCD\n"
      "and highest cost; S-Resume best utility; Chronos strategies beat\n"
      "Hadoop-NS/Hadoop-S on net utility.\n");
  return 0;
}
