// Golden-file tests for the report emitters: the CSV/JSON/table renderings
// of a fixed, hand-built sweep result are compared byte-for-byte against
// committed expected files, and re-checked under a ','-decimal locale to
// prove the emitters are locale-independent. Also the output writer:
// write_file replaces a regular file (never truncates it in place) and
// opens symlinks and devices as given.
//
// To regenerate the golden files after an intentional format change, run
// this binary with --gtest_filter=ReportGolden.* and the environment
// variable CHRONOS_REGOLD=1, then inspect the diff under tests/golden/.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <clocale>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "test_util.h"

namespace chronos::exp {
namespace {

using strategies::PolicyKind;
using testing::check_or_regold;
using testing::read_golden;
using testing::slurp;

/// A fixed two-policy x two-workload result with awkward values: shortest
/// and long round-trip decimals, a quoted CSV label, and a -inf utility.
SweepResult fixed_result() {
  SweepResult result;
  result.name = "golden";
  result.axis_names = {"workload"};
  result.replications = 3;

  const auto make_cell = [](std::size_t cell, PolicyKind policy,
                            const char* name, std::size_t index,
                            const char* label, double base) {
    CellResult out;
    out.point.cell = cell;
    out.point.policy = policy;
    out.policy_name = name;
    out.point.coordinates = {{.name = "workload",
                              .value = static_cast<double>(index),
                              .label = label,
                              .index = index}};
    CellAggregate& agg = out.aggregate;
    agg.runs = 3;
    agg.jobs = 30;
    agg.attempts_launched = 90 + cell;
    agg.attempts_killed = 11 * cell;
    agg.attempts_failed = cell == 3 ? 2 : 0;
    agg.events_executed = 4321 + cell;
    agg.pocd = {3, 0.75 + base, 0.030000000000000002, 0.0745, 0.7, 0.8};
    agg.cost = {3, 123.456 + base, 7.5, 18.6328125, 110.0, 130.5};
    agg.machine_time = {3, 0.1 + 0.2, 0.05, 0.124, 0.25, 0.35};
    agg.mean_r = {3, 2.5, 0.5, 1.2421875, 2.0, 3.0};
    if (cell < 2) {
      agg.utility = {3, cell == 0
                            ? -std::numeric_limits<double>::infinity()
                            : -0.388062739504,
                     0.001, 0.0024843749999999997, -0.39, -0.386};
    }
    return out;
  };
  result.cells.push_back(
      make_cell(0, PolicyKind::kSResume, "S-Resume", 0, "Sort", 0.0));
  result.cells.push_back(make_cell(1, PolicyKind::kSResume, "S-Resume", 1,
                                   "Word, count", 0.001));
  result.cells.push_back(
      make_cell(2, PolicyKind::kHadoopNS, "Hadoop-NS", 0, "Sort", -0.25));
  result.cells.push_back(make_cell(3, PolicyKind::kHadoopNS, "Hadoop-NS", 1,
                                   "Word, count", -0.125));
  return result;
}

TEST(ReportGolden, CsvMatchesCommittedBytes) {
  check_or_regold("report_small.csv", to_csv(fixed_result()));
}

TEST(ReportGolden, JsonMatchesCommittedBytes) {
  check_or_regold("report_small.json", to_json(fixed_result()));
}

TEST(ReportGolden, TableMatchesCommittedBytes) {
  check_or_regold("report_small.txt", to_table(fixed_result()).str());
}

/// Locale guard: restores the C locale on scope exit.
class ScopedLocale {
 public:
  explicit ScopedLocale(const char* name)
      : ok_(std::setlocale(LC_ALL, name) != nullptr) {}
  ~ScopedLocale() { std::setlocale(LC_ALL, "C"); }
  bool ok() const { return ok_; }

 private:
  bool ok_;
};

TEST(ReportGolden, OutputIsLocaleIndependent) {
  // Find an installed locale whose decimal separator is ','. Containers
  // often ship only C/POSIX; skip (loudly) rather than fake a pass.
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                              "fr_FR.utf8",  "it_IT.UTF-8", "es_ES.UTF-8",
                              "nl_NL.UTF-8", "de_DE",       "fr_FR"};
  for (const char* name : candidates) {
    ScopedLocale locale(name);
    if (!locale.ok()) {
      continue;
    }
    if (std::string(std::localeconv()->decimal_point) != ",") {
      continue;
    }
    const SweepResult result = fixed_result();
    EXPECT_EQ(to_csv(result), read_golden("report_small.csv"))
        << "CSV bytes changed under locale " << name;
    EXPECT_EQ(to_json(result), read_golden("report_small.json"))
        << "JSON bytes changed under locale " << name;
    EXPECT_EQ(to_table(result).str(), read_golden("report_small.txt"))
        << "table bytes changed under locale " << name;
    return;
  }
  GTEST_SKIP() << "no ','-decimal locale installed";
}

// --- the output writer ------------------------------------------------------

std::string writer_path(const std::string& name) {
  return ::testing::TempDir() + "chronos_writer_" + name;
}

TEST(WriteFile, RewriteLeavesTheNewBytesOnANewInode) {
  const std::string path = writer_path("rewrite.csv");
  write_file(path, "the previous run's longer report\n");
  // Holding the old file open keeps its inode allocated, so a replacement
  // cannot be handed the same inode number again.
  const int old_fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(old_fd, 0);
  struct stat old_info {};
  ASSERT_EQ(::fstat(old_fd, &old_info), 0);

  write_file(path, "new\n");

  EXPECT_EQ(slurp(path), "new\n");
  struct stat new_info {};
  ASSERT_EQ(::stat(path.c_str(), &new_info), 0);
  EXPECT_NE(new_info.st_ino, old_info.st_ino);
  ::close(old_fd);
  std::remove(path.c_str());
}

TEST(WriteFile, SymlinkStaysASymlinkAndItsTargetGetsTheBytes) {
  const std::string target = writer_path("target.json");
  const std::string link = writer_path("link.json");
  std::remove(link.c_str());
  write_file(target, "old target bytes");
  ASSERT_EQ(::symlink(target.c_str(), link.c_str()), 0);

  write_file(link, "{}");

  struct stat info {};
  ASSERT_EQ(::lstat(link.c_str(), &info), 0);
  EXPECT_TRUE(S_ISLNK(info.st_mode));
  EXPECT_EQ(slurp(target), "{}");
  std::remove(link.c_str());
  std::remove(target.c_str());
}

TEST(WriteFile, DeviceIsWrittenThroughAndNeverUnlinked) {
  write_file("/dev/null", "discarded");
  struct stat info {};
  ASSERT_EQ(::lstat("/dev/null", &info), 0);
  EXPECT_TRUE(S_ISCHR(info.st_mode));
}

TEST(WriteFile, PathInAMissingDirectoryThrows) {
  const std::string dir = writer_path("missing_dir");
  std::filesystem::remove_all(dir);
  EXPECT_THROW(write_file(dir + "/out.csv", "x"), PreconditionError);
}

}  // namespace
}  // namespace chronos::exp
