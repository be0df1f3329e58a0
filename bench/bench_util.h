// Shared helpers for the figure and sweep bench binaries.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/numeric.h"
#include "exp/report.h"
#include "exp/sweep.h"

namespace chronos::bench {

/// Fixed-point text of `v`; -infinity prints as "-inf".
inline std::string fmt(double v, int precision = 3) {
  return numeric::format_double_fixed(v, precision);
}

/// Flags of the sweep-engine bench binary (fig2_testbed):
///   --threads N     worker threads (0 = all hardware threads)
///   --reps N        replications per cell (0 = binary default)
///   --csv PATH      also write the aggregated sweep as CSV
///   --json PATH     also write the aggregated sweep as JSON
///   --journal PATH  checkpoint finished cells; reruns resume from it
struct SweepCli {
  int threads = 0;
  int reps = 0;
  std::string csv;
  std::string json;
  std::string journal;
};

/// Parses a bounded non-negative integer flag value or exits with usage.
inline int parse_count(const char* text, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || parsed < 0 || parsed > 1000000) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text, flag);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

inline SweepCli parse_sweep_cli(int argc, char** argv) {
  SweepCli cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value after %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      cli.threads = parse_count(value(i), "--threads");
    } else if (arg == "--reps") {
      cli.reps = parse_count(value(i), "--reps");
    } else if (arg == "--csv") {
      cli.csv = value(i);
    } else if (arg == "--json") {
      cli.json = value(i);
    } else if (arg == "--journal") {
      cli.journal = value(i);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      std::exit(2);
    }
  }
  return cli;
}

/// Sweep options carrying the CLI's --threads and --journal flags.
inline exp::SweepOptions sweep_options(const SweepCli& cli) {
  exp::SweepOptions options;
  options.threads = cli.threads;
  options.journal = cli.journal;
  return options;
}

/// Applies the --csv / --json flags to a finished sweep.
inline void dump_reports(const SweepCli& cli, const exp::SweepResult& result) {
  if (!cli.csv.empty()) {
    exp::write_file(cli.csv, exp::to_csv(result));
    std::printf("\nCSV written to %s\n", cli.csv.c_str());
  }
  if (!cli.json.empty()) {
    exp::write_file(cli.json, exp::to_json(result));
    std::printf("\nJSON written to %s\n", cli.json.c_str());
  }
}

}  // namespace chronos::bench
