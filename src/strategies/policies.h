// The six scheduling strategies evaluated in §VII, as SpeculationPolicy
// implementations:
//
//   Hadoop-NS  — default Hadoop, speculation disabled.
//   Hadoop-S   — default Hadoop speculation: after the first task of a job
//                finishes, periodically speculate the task whose estimated
//                completion lags the average of finished tasks the most
//                (naive progress-rate estimator, one extra attempt per task).
//   Mantri     — resource-aware restarts: when containers are idle and no
//                work waits, repeatedly duplicate tasks whose remaining time
//                exceeds the average task time by a threshold (default 30 s,
//                at most 3 extra attempts), and periodically keep only the
//                most promising attempt of each task.
//   Clone      — Chronos proactive strategy: r+1 copies of every task from
//                t = 0; at tau_kill keep the best-progress copy (§III).
//   S-Restart  — Chronos reactive strategy: at tau_est launch r fresh copies
//                of every detected straggler; at tau_kill keep the attempt
//                with the smallest estimated completion time.
//   S-Resume   — Chronos work-preserving strategy: at tau_est kill each
//                straggler and launch r+1 copies resuming from the Eq. 31
//                byte offset; at tau_kill keep the best attempt.
//
// The Chronos policies read r, tau_est and tau_kill from each StageSpec of
// the job; the optimal r is computed per stage by core::optimize (see
// trace::plan_staged_spec).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mapreduce/scheduler.h"

namespace chronos::strategies {

enum class PolicyKind {
  kHadoopNS,
  kHadoopS,
  kMantri,
  kClone,
  kSRestart,
  kSResume,
};

/// Display name matching the paper's figures ("Hadoop-NS", "Clone", ...).
std::string to_string(PolicyKind kind);

/// Parses a policy name as used on CLIs and in sweep manifests
/// ("hadoop-ns", "s-resume", ...; case-insensitive). nullopt when unknown.
std::optional<PolicyKind> policy_from_name(const std::string& name);

/// Tunables for the baseline policies.
struct PolicyOptions {
  double check_period = 1.0;        ///< Hadoop-S / Mantri monitor period (s)
  /// Mantri duplicates a task when its remaining time exceeds the average
  /// task time by this slack. The paper uses 30 s against Google-trace-scale
  /// durations; the default here is scaled to the synthetic trace's shorter
  /// tasks so Mantri stays as aggressive as the paper describes.
  double mantri_threshold = 5.0;
  int mantri_max_extra = 3;         ///< Mantri cap on extra attempts per task
  /// Mantri's keep-best pruning runs on this slower cadence; duplicates run
  /// (and accrue machine time) until the next prune. Long enough that a
  /// fast duplicate can overtake the straggler's progress score before the
  /// prune decides.
  double mantri_prune_period = 45.0;
};

/// Instantiates a policy. The returned object keeps per-job state keyed by
/// job index, so it may serve many jobs of one Scheduler but never two
/// Schedulers.
std::unique_ptr<mapreduce::SpeculationPolicy> make_policy(
    PolicyKind kind, const PolicyOptions& options = {});

// --- concrete classes (exposed for tests) ---------------------------------

class HadoopNoSpeculation final : public mapreduce::SpeculationPolicy {
 public:
  std::string name() const override { return "Hadoop-NS"; }
  int max_extra_attempts(const mapreduce::JobSpec& /*spec*/,
                         int /*stage*/) const override {
    return 0;
  }
};

class HadoopSpeculation final : public mapreduce::SpeculationPolicy {
 public:
  explicit HadoopSpeculation(PolicyOptions options) : options_(options) {}
  std::string name() const override { return "Hadoop-S"; }
  int max_extra_attempts(const mapreduce::JobSpec& /*spec*/,
                         int /*stage*/) const override {
    return 1;
  }
  void on_task_completed(int job, int task,
                         mapreduce::SchedulerApi& api) override;

 private:
  void check(int job, mapreduce::SchedulerApi& api);

  PolicyOptions options_;
  /// The scheduler's api (one per policy object), so a timer captures only
  /// [this, job]: 16 bytes stay in std::function's inline buffer and
  /// arming the timer allocates nothing.
  mapreduce::SchedulerApi* api_ = nullptr;
  std::unordered_set<int> monitoring_;  ///< jobs with an active checker
  // check()'s per-stage sums of finished tasks, reused across calls.
  std::vector<double> stage_sum_;
  std::vector<int> stage_count_;
};

/// The once-per-second launch check walks a per-job candidate list instead
/// of every task: the tasks that are incomplete and below
/// `mantri_max_extra`, ascending (the order incomplete_tasks() visits).
/// on_job_start fills it with every task of the job; check() compacts it in
/// place as it walks, dropping completed and capped tasks for good (both
/// only ever become true), and keeps the unvisited tail when spare capacity
/// runs out; on_job_completed frees it. The check therefore costs the tasks
/// it can still duplicate, not the job's size.
class Mantri final : public mapreduce::SpeculationPolicy {
 public:
  explicit Mantri(PolicyOptions options) : options_(options) {}
  std::string name() const override { return "Mantri"; }
  int max_extra_attempts(const mapreduce::JobSpec& /*spec*/,
                         int /*stage*/) const override {
    return options_.mantri_max_extra;
  }
  void on_job_start(int job, mapreduce::SchedulerApi& api) override;
  void on_job_completed(int job, mapreduce::SchedulerApi& api) override;

 private:
  void check(int job, mapreduce::SchedulerApi& api);
  void prune(int job, mapreduce::SchedulerApi& api);

  PolicyOptions options_;
  mapreduce::SchedulerApi* api_ = nullptr;  ///< as HadoopSpeculation::api_
  std::unordered_map<int, std::vector<int>> candidates_;  ///< by live job
  std::vector<int> reported_;  ///< prune()'s per-task buffer, reused
};

// The Chronos policies run once per stage: every stage arms its own
// tau_est / tau_kill timers (relative to the stage's start) when the
// scheduler fires on_stage_start — the paper applies each strategy to the
// map and reduce phases separately, which generalizes verbatim to DAGs.

class Clone final : public mapreduce::SpeculationPolicy {
 public:
  std::string name() const override { return "Clone"; }
  int initial_attempts(const mapreduce::JobSpec& spec,
                       int stage) const override {
    return static_cast<int>(spec.stage(stage).r) + 1;
  }
  int max_extra_attempts(const mapreduce::JobSpec& /*spec*/,
                         int /*stage*/) const override {
    return 0;
  }
  void on_stage_start(int job, int stage,
                      mapreduce::SchedulerApi& api) override;
};

/// The reactive skeleton S-Restart and S-Resume share. At tau_est every
/// incomplete task of the stage whose original attempt (its oldest active
/// one) is estimated to miss the deadline goes to speculate(); at tau_kill
/// every incomplete task keeps only the attempt with the smallest estimated
/// completion time. Both timers run relative to the stage's start.
class StragglerSpeculation : public mapreduce::SpeculationPolicy {
 public:
  void on_stage_start(int job, int stage,
                      mapreduce::SchedulerApi& api) final;

 protected:
  /// Acts on the straggling attempt `original` of `task`; `r` is the
  /// stage's speculation level.
  virtual void speculate(int job, int task, int original, long long r,
                         mapreduce::SchedulerApi& api) = 0;

 private:
  void detect(int job, int stage, mapreduce::SchedulerApi& api);
  void reap(int job, int stage, mapreduce::SchedulerApi& api);

  mapreduce::SchedulerApi* api_ = nullptr;  ///< as HadoopSpeculation::api_
};

class SpeculativeRestart final : public StragglerSpeculation {
 public:
  std::string name() const override { return "S-Restart"; }
  int max_extra_attempts(const mapreduce::JobSpec& spec,
                         int stage) const override {
    return static_cast<int>(spec.stage(stage).r);
  }

 private:
  void speculate(int job, int task, int original, long long r,
                 mapreduce::SchedulerApi& api) override;
};

class SpeculativeResume final : public StragglerSpeculation {
 public:
  std::string name() const override { return "S-Resume"; }
  int max_extra_attempts(const mapreduce::JobSpec& spec,
                         int stage) const override {
    return static_cast<int>(spec.stage(stage).r) + 1;
  }

 private:
  void speculate(int job, int task, int original, long long r,
                 mapreduce::SchedulerApi& api) override;
};

}  // namespace chronos::strategies
