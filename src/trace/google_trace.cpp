#include "trace/google_trace.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.h"
#include "common/rng.h"

namespace chronos::trace {

namespace {

/// Log-space standard deviation of the lognormal task count.
constexpr double kTasksLogSigma = 1.0;

}  // namespace

void TraceConfig::validate() const {
  CHRONOS_EXPECTS(num_jobs >= 1, "trace needs at least one job");
  CHRONOS_EXPECTS(duration_hours > 0.0, "duration must be positive");
  CHRONOS_EXPECTS(mean_tasks >= 1.0, "mean_tasks must be >= 1");
  CHRONOS_EXPECTS(max_tasks >= 1, "max_tasks must be >= 1");
  CHRONOS_EXPECTS(t_min_lo > 0.0 && t_min_hi >= t_min_lo,
                  "invalid t_min range");
  CHRONOS_EXPECTS(beta_lo > 1.0 && beta_hi >= beta_lo,
                  "beta range must lie above 1 (finite mean)");
  CHRONOS_EXPECTS(deadline_factor_lo > 1.0 &&
                      deadline_factor_hi >= deadline_factor_lo,
                  "deadline factors must exceed 1");
  CHRONOS_EXPECTS(jvm_mean >= 0.0 && jvm_jitter >= 0.0 &&
                      jvm_jitter <= jvm_mean + 1e-12,
                  "invalid JVM model");
  for (std::size_t i = 0; i < extra_stages.size(); ++i) {
    const auto& st = extra_stages[i];
    CHRONOS_EXPECTS(st.num_tasks >= 1, "extra stage needs >= 1 task");
    CHRONOS_EXPECTS(st.t_min > 0.0 && st.beta > 1.0,
                    "extra stage needs t_min > 0 and beta > 1");
    for (const int dep : st.deps) {
      // Deps are in final job numbering: stage 0 is the sampled root, this
      // template is stage i + 1.
      CHRONOS_EXPECTS(dep >= 0 && dep < static_cast<int>(i) + 1,
                      "extra stage dep must reference an earlier stage");
    }
  }
}

mapreduce::JobSpec sample_job_spec(const TraceConfig& config, int job_id,
                                   Rng& rng) {
  mapreduce::JobSpec spec;
  spec.job_id = job_id;
  auto& root = spec.stage(0);

  // Lognormal task count with the requested mean:
  // E[exp(mu + sigma Z)] = exp(mu + sigma^2/2) = mean_tasks.
  const double sigma = kTasksLogSigma;
  const double mu = std::log(config.mean_tasks) - 0.5 * sigma * sigma;
  // Clamped before rounding: a draw past INT_MAX (a large mean_tasks) must
  // land on max_tasks, not wrap in the narrowing to int.
  const double tasks = std::clamp(std::exp(mu + sigma * rng.normal()), 1.0,
                                  static_cast<double>(config.max_tasks));
  root.num_tasks = static_cast<int>(std::llround(tasks));

  // Per-job duration model: log-uniform scale, uniform tail index.
  root.t_min = std::exp(
      rng.uniform(std::log(config.t_min_lo), std::log(config.t_min_hi)));
  root.beta = rng.uniform(config.beta_lo, config.beta_hi);

  const double mean_exec = root.t_min * root.beta / (root.beta - 1.0);
  const double factor =
      rng.uniform(config.deadline_factor_lo, config.deadline_factor_hi);
  spec.deadline = factor * mean_exec;

  spec.jvm_mean = config.jvm_mean;
  spec.jvm_jitter = config.jvm_jitter;

  // Stage templates ride along verbatim — deliberately after every RNG
  // draw and drawing nothing themselves, so the root-stage stream (and
  // thus every map-only golden) is untouched by their presence. The
  // sampled deadline factor budgets the whole pipeline: each extra stage
  // extends the root-only deadline by its own mean execution time
  // (deterministic, so again no stream perturbation).
  double extra_exec = 0.0;
  for (const auto& extra : config.extra_stages) {
    spec.stages.push_back(extra);
    extra_exec += extra.t_min * extra.beta / (extra.beta - 1.0);
  }
  spec.deadline += factor * extra_exec;
  return spec;
}

std::vector<TracedJob> generate_trace(const TraceConfig& config) {
  config.validate();
  Rng rng(config.seed);
  const double horizon = config.duration_hours * 3600.0;

  std::vector<TracedJob> jobs;
  jobs.reserve(static_cast<std::size_t>(config.num_jobs));
  for (int i = 0; i < config.num_jobs; ++i) {
    TracedJob job;
    job.submit_time = rng.uniform(0.0, horizon);
    job.spec = sample_job_spec(config, i, rng);
    jobs.push_back(job);
  }

  std::sort(jobs.begin(), jobs.end(),
            [](const TracedJob& a, const TracedJob& b) {
              return a.submit_time < b.submit_time;
            });
  for (int i = 0; i < config.num_jobs; ++i) {
    jobs[static_cast<std::size_t>(i)].spec.job_id = i;
  }
  return jobs;
}

std::int64_t total_tasks(const std::vector<TracedJob>& jobs) {
  std::int64_t total = 0;
  for (const auto& job : jobs) {
    total += job.spec.total_tasks();
  }
  return total;
}

}  // namespace chronos::trace
