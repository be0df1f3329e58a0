// Concavity thresholds Gamma_strategy of Theorem 8: the net utility U(r) is
// concave in r for r > Gamma. Algorithm 1 scans below ceil(Gamma) and
// searches convexly above it (core/optimizer.h).
#pragma once

#include "core/model.h"

namespace chronos::core {

/// Gamma_Clone = -(1/beta) log_{t_min/D} N - 1.
double gamma_clone(const JobParams& params);

/// Gamma_S-Restart = (1/beta) log_{t_min/(D - tau_est)}
///                   (D^beta / (N t_min^beta)); +infinity when
/// D - tau_est == t_min (the logarithm base is 1).
double gamma_s_restart(const JobParams& params);

/// Gamma_S-Resume = (1/beta) log_{(1-phi) t_min/(D - tau_est)}
///                  (D^beta / (N t_min^beta)) - 1; +infinity when the
/// logarithm base is 1.
double gamma_s_resume(const JobParams& params);

/// Dispatch on `strategy`.
double gamma_threshold(Strategy strategy, const JobParams& params);

/// First integer r at or above which concavity is guaranteed:
/// max(0, ceil(gamma_threshold)), saturated to LLONG_MAX when Gamma is
/// +infinity, NaN or beyond the range of long long.
long long concave_start(Strategy strategy, const JobParams& params);

/// As above for an already-computed Gamma (e.g. AnalyticContext::gamma()).
long long concave_start(double gamma);

}  // namespace chronos::core
