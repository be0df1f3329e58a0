// Arrival processes for the open-system simulator: job submission streams
// rather than a fixed job list.
//
// Two generators:
//  - Poisson: memoryless arrivals at a constant mean rate (the §VII-B trace
//    model, but unbounded in time);
//  - trace: replay of explicit submission timestamps loaded from a file
//    (one time per line), for measured production traces.
//
// All processes draw from a caller-owned Rng, so a run's arrival stream is
// a pure function of (spec, seed) — the same determinism contract as the
// rest of the stack.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace chronos::trace {

enum class ArrivalKind {
  kPoisson,  ///< homogeneous Poisson at `rate`
  kTrace,    ///< replay of `times`
};

/// Declarative description of an arrival stream. Parsed from the manifest
/// [arrivals] section and embedded in sim::OpenSystemConfig.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate = 0.1;          ///< mean arrivals per second (Poisson)
  std::vector<double> times;  ///< trace replay: nondecreasing, finite, >= 0

  /// Throws PreconditionError on any invalid field for the chosen kind.
  void validate() const;
};

/// A stream of arrival instants. next_after(now) returns the first arrival
/// strictly after `now`, or +infinity when the stream is exhausted (only
/// trace streams exhaust). Calls must be monotone in `now` — the engine
/// always passes the previous arrival it consumed.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual double next_after(double now, Rng& rng) = 0;
};

/// Builds the process `spec` describes (spec is validated first).
std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec);

/// Parses trace-replay timestamps: one number per line, '#'/';' full-line
/// comments and blank lines ignored. Throws PreconditionError (with the
/// line number) on malformed numbers, negatives, non-finite values, or a
/// decreasing sequence.
std::vector<double> parse_arrival_times(const std::string& text);

/// Reads and parses an arrival-times file.
std::vector<double> load_arrival_times(const std::string& path);

}  // namespace chronos::trace
