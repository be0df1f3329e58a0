#include "core/thresholds.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace chronos::core {

namespace {

/// log_base(x) for base in (0, 1): ln(x) / ln(base).
double log_base(double base, double x) {
  CHRONOS_ENSURES(base > 0.0 && base != 1.0, "invalid logarithm base");
  CHRONOS_ENSURES(x > 0.0, "logarithm of a non-positive value");
  return std::log(x) / std::log(base);
}

/// D^beta / (N t_min^beta) — the logarithm argument shared by the S-Restart
/// and S-Resume thresholds of Theorem 8 (previously duplicated verbatim).
double gamma_log_arg(const JobParams& params) {
  return std::pow(params.deadline, params.beta) /
         (static_cast<double>(params.num_tasks) *
          std::pow(params.t_min, params.beta));
}

/// (1/beta) log_base(D^beta / (N t_min^beta)): Theorem 8's S-Restart and
/// S-Resume form. At base == 1 (D - tau_est == t_min, with phi == 0 for
/// S-Resume) every extra attempt misses the deadline surely, so restarts
/// never help and the logarithm has no finite value: Gamma = +infinity.
double speculative_gamma(const JobParams& params, double base) {
  if (base == 1.0) {
    return std::numeric_limits<double>::infinity();
  }
  return log_base(base, gamma_log_arg(params)) / params.beta;
}

}  // namespace

double gamma_clone(const JobParams& params) {
  params.validate();
  const double base = params.t_min / params.deadline;
  return -log_base(base, static_cast<double>(params.num_tasks)) /
             params.beta -
         1.0;
}

double gamma_s_restart(const JobParams& params) {
  params.validate();
  const double base = params.t_min / (params.deadline - params.tau_est);
  return speculative_gamma(params, base);
}

double gamma_s_resume(const JobParams& params) {
  params.validate();
  const double base = (1.0 - params.phi_est) * params.t_min /
                      (params.deadline - params.tau_est);
  return speculative_gamma(params, base) - 1.0;
}

double gamma_threshold(Strategy strategy, const JobParams& params) {
  switch (strategy) {
    case Strategy::kClone:
      return gamma_clone(params);
    case Strategy::kSpeculativeRestart:
      return gamma_s_restart(params);
    case Strategy::kSpeculativeResume:
      return gamma_s_resume(params);
  }
  CHRONOS_ENSURES(false, "unknown strategy");
}

long long concave_start(Strategy strategy, const JobParams& params) {
  return concave_start(gamma_threshold(strategy, params));
}

long long concave_start(double gamma) {
  // Saturate instead of casting: converting a double outside the range of
  // long long (or NaN) is undefined behaviour. An unknown threshold is
  // treated as "no concavity guaranteed", the conservative direction.
  constexpr auto kMax = std::numeric_limits<long long>::max();
  if (!(gamma < static_cast<double>(kMax))) {
    return kMax;
  }
  return gamma <= 0.0 ? 0 : static_cast<long long>(std::ceil(gamma));
}

}  // namespace chronos::core
