// Shared helpers for the Chronos test suite.
#pragma once

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "core/model.h"
#include "exp/report.h"

namespace chronos::testing {

/// A representative deadline-sensitive job (matches the §VII-A testbed
/// scale: 10 tasks, 100 s deadline, detection at 40 s, kill at 80 s).
inline core::JobParams default_job() {
  core::JobParams params;
  params.num_tasks = 10;
  params.deadline = 100.0;
  params.t_min = 30.0;
  params.beta = 1.5;
  params.tau_est = 40.0;
  params.tau_kill = 80.0;
  params.phi_est = 0.25;
  return params;
}

inline core::Economics default_econ() {
  core::Economics econ;
  econ.price = 0.4;
  econ.theta = 1e-4;
  econ.r_min = 0.0;
  return econ;
}

// --- files and goldens ------------------------------------------------------

/// A file's whole content; a missing or unreadable file fails the test.
inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void spill(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// The committed expected outputs, read from the source tree.
inline const std::string kGoldenDir =
    std::string(CHRONOS_TEST_DIR) + "/golden/";

inline std::string read_golden(const std::string& name) {
  return slurp(kGoldenDir + name);
}

/// Compares `actual` with the golden `name`. With CHRONOS_REGOLD set in the
/// environment it writes `actual` as the new golden instead; review the
/// diff under tests/golden/ before committing it.
inline void check_or_regold(const std::string& name,
                            const std::string& actual) {
  if (std::getenv("CHRONOS_REGOLD") != nullptr) {
    exp::write_file(kGoldenDir + name, actual);
    return;
  }
  EXPECT_EQ(actual, read_golden(name)) << "golden mismatch: " << name;
}

// --- driving the sweeprun binary -------------------------------------------

struct CommandResult {
  int status = -1;
  std::string output;  ///< stdout + stderr
};

/// Runs `command` through the shell and collects its exit status and output.
inline CommandResult run_command(const std::string& command) {
  CommandResult result;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) {
    return result;
  }
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int raw = pclose(pipe);
  result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

}  // namespace chronos::testing
