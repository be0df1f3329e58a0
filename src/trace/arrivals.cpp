#include "trace/arrivals.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/error.h"
#include "common/numeric.h"

namespace chronos::trace {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : sampler_(rate) {}

  double next_after(double now, Rng& rng) override {
    return now + sampler_(rng);
  }

 private:
  ExponentialSampler sampler_;
};

class TraceArrivals final : public ArrivalProcess {
 public:
  explicit TraceArrivals(std::vector<double> times)
      : times_(std::move(times)) {}

  double next_after(double now, Rng& rng) override {
    (void)rng;
    // Entries strictly before `now` are skipped; ties are returned one per
    // call (next_ always advances on return, so batch arrivals at the same
    // instant — including t == 0 on the first call — each fire once).
    while (next_ < times_.size() && times_[next_] < now) {
      ++next_;
    }
    return next_ < times_.size() ? times_[next_++] : kInf;
  }

 private:
  std::vector<double> times_;
  std::size_t next_ = 0;
};

}  // namespace

void ArrivalSpec::validate() const {
  if (kind == ArrivalKind::kPoisson) {
    CHRONOS_EXPECTS(std::isfinite(rate) && rate > 0.0,
                    "arrival rate must be positive and finite");
  } else {
    double previous = 0.0;
    for (const double t : times) {
      CHRONOS_EXPECTS(std::isfinite(t) && t >= 0.0,
                      "trace arrival times must be finite and >= 0");
      CHRONOS_EXPECTS(t >= previous, "trace arrival times must not decrease");
      previous = t;
    }
  }
}

std::unique_ptr<ArrivalProcess> make_arrival_process(const ArrivalSpec& spec) {
  spec.validate();
  switch (spec.kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(spec.rate);
    case ArrivalKind::kTrace:
      return std::make_unique<TraceArrivals>(spec.times);
  }
  CHRONOS_EXPECTS(false, "unknown arrival kind");
}

std::vector<double> parse_arrival_times(const std::string& text) {
  std::vector<double> times;
  int line_number = 0;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t end = text.find('\n', at);
    std::string line = text.substr(
        at, end == std::string::npos ? std::string::npos : end - at);
    at = end == std::string::npos ? text.size() + 1 : end + 1;
    ++line_number;

    const auto begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) {
      continue;
    }
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(begin, last - begin + 1);
    if (line.front() == '#' || line.front() == ';') {
      continue;
    }
    double parsed = 0.0;
    CHRONOS_EXPECTS(numeric::parse_double(line, parsed),
                    "arrival times line " + std::to_string(line_number) +
                        ": '" + line + "' is not a number");
    CHRONOS_EXPECTS(std::isfinite(parsed) && parsed >= 0.0,
                    "arrival times line " + std::to_string(line_number) +
                        ": times must be finite and >= 0");
    CHRONOS_EXPECTS(times.empty() || parsed >= times.back(),
                    "arrival times line " + std::to_string(line_number) +
                        ": times must not decrease");
    times.push_back(parsed);
  }
  return times;
}

std::vector<double> load_arrival_times(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  CHRONOS_EXPECTS(file != nullptr, "cannot open arrival file '" + path + "'");
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(file);
  return parse_arrival_times(text);
}

}  // namespace chronos::trace
