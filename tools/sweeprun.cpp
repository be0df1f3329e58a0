// sweeprun: run an experiment grid described by a manifest file.
//
// New grids become config files instead of C++ binaries: the manifest
// declares the axes, policies, replication policy (fixed or CI-adaptive),
// trace/planner templates and outputs (see src/exp/manifest.h for the
// format; checked-in examples live under manifests/).
//
//   sweeprun MANIFEST [--threads N] [--journal PATH] [--fresh]
//            [--csv PATH] [--json PATH] [--no-table]
//            [--shard I/N] [--shard-dir DIR] [--merge [N]]
//            [--metrics-out PATH] [--trace-out PATH] [--progress]
//
// Distribution: `--shard I/N` is a fixed lease. Shard I runs every Nth cell
// of the grid from cell I-1 (exp::partition_cells) through exp::run_sweep
// into `<shard-dir>/<name>.shard-I-of-N.journal`; striding deals a
// policy-major grid's expensive policies to every shard alike. Run the N
// shards on N machines against one shared directory, then `--merge` on any
// of them fuses the shard journals through exp::FinishedCells (duplicates
// must match byte for byte; gaps, conflicts and foreign fingerprints are
// hard errors) and renders reports byte-identical to a single-process run.
//
// SIGINT/SIGTERM drain a run gracefully: the current replication round
// winds down, finished cells are flushed and fsynced to the journal, and
// the process exits with status 130 — a rerun resumes exactly where it
// stopped.
//
// Observability: --metrics-out dumps the process metrics registry as JSON
// after a successful run, --trace-out records Chrome-trace-event JSON
// (open it at https://ui.perfetto.dev), and --progress logs a throttled
// cells/replications/ETA line to stderr. All three are observational only:
// reports and journal bytes are identical with or without them.
//
// CLI flags override the manifest's [output] and [shard] sections and the
// replication count. With a journal configured, finished cells stream to it
// and a rerun after a crash (or a kill) skips them — the final reports are
// byte-identical to an uninterrupted run at any thread count.
//
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <vector>

#include "common/log.h"
#include "common/numeric.h"
#include "exp/checkpoint.h"
#include "exp/manifest.h"
#include "exp/report.h"
#include "exp/sweep.h"
#include "exp/threadpool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using namespace chronos;  // NOLINT

/// Raised by the SIGINT/SIGTERM handler; run_sweep polls it and drains:
/// journal flushed + fsynced, exit code 130.
std::atomic<bool> g_cancel{false};

void handle_shutdown_signal(int) { g_cancel.store(true); }

void install_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

constexpr int kInterruptedExit = 130;

struct Cli {
  std::string manifest_path;
  int threads = 0;  ///< 0 = all hardware threads
  std::string journal;
  std::string csv;
  std::string json;
  std::string shard_dir;
  bool fresh = false;
  bool no_table = false;
  std::size_t shard_index = 0;  ///< 0-based; valid when shard_count > 0
  std::size_t shard_count = 0;  ///< 0 = no --shard flag
  bool merge = false;
  std::size_t merge_count = 0;  ///< 0 = from --shard or the manifest
  std::string metrics_out;  ///< write the metrics registry JSON here
  std::string trace_out;    ///< write Chrome trace-event JSON here
  bool progress = false;    ///< throttled progress lines on stderr
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s MANIFEST [--threads N] "
               "[--journal PATH] [--fresh] [--csv PATH] [--json PATH] "
               "[--no-table] [--shard I/N] [--shard-dir DIR] [--merge [N]] "
               "[--metrics-out PATH] [--trace-out PATH] [--progress]\n",
               argv0);
  std::exit(2);
}

/// Parses all of `text` as an unsigned decimal: no sign, no trailing junk,
/// no overflow of T.
template <typename T>
bool parse_size(const std::string& text, T& out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return false;
  }
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return result.ec == std::errc() &&
         result.ptr == text.data() + text.size();
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  const auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "sweeprun: missing value after %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  // A numeric flag: garbage or a sign exits with usage.
  const auto number = [&](int& i, auto& out) {
    if (!parse_size(value(i), out)) {
      usage(argv[0]);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads") {
      number(i, cli.threads);
    } else if (arg == "--journal") {
      cli.journal = value(i);
    } else if (arg == "--csv") {
      cli.csv = value(i);
    } else if (arg == "--json") {
      cli.json = value(i);
    } else if (arg == "--shard-dir") {
      cli.shard_dir = value(i);
    } else if (arg == "--shard") {
      // "I/N", 1-based: --shard 2/5 is the second of five shards.
      const std::string spec = value(i);
      const std::size_t slash = spec.find('/');
      std::size_t index = 0;
      std::size_t count = 0;
      if (slash == std::string::npos ||
          !parse_size(spec.substr(0, slash), index) ||
          !parse_size(spec.substr(slash + 1), count) || index < 1 ||
          index > count) {
        std::fprintf(stderr,
                     "sweeprun: --shard wants I/N with 1 <= I <= N, "
                     "got '%s'\n",
                     spec.c_str());
        std::exit(2);
      }
      cli.shard_index = index - 1;
      cli.shard_count = count;
    } else if (arg == "--merge") {
      cli.merge = true;
      // Optional shard count: "--merge 5". Without it the count comes from
      // --shard I/N or the manifest's [shard] section. Parsed into a local
      // so a non-numeric next argument (say, a manifest path starting with
      // a digit) cannot leave a half-parsed count behind.
      std::size_t count = 0;
      if (i + 1 < argc && parse_size(argv[i + 1], count) && count > 0) {
        cli.merge_count = count;
        ++i;
      }
    } else if (arg == "--fresh") {
      cli.fresh = true;
    } else if (arg == "--no-table") {
      cli.no_table = true;
    } else if (arg == "--metrics-out") {
      cli.metrics_out = value(i);
    } else if (arg == "--trace-out") {
      cli.trace_out = value(i);
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::fprintf(stderr, "sweeprun: unknown flag '%s'\n", arg.c_str());
      usage(argv[0]);
    } else if (cli.manifest_path.empty()) {
      cli.manifest_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (cli.manifest_path.empty()) {
    usage(argv[0]);
  }
  if ((!cli.metrics_out.empty() || !cli.trace_out.empty()) &&
      !obs::compiled_in()) {
    std::fprintf(stderr,
                 "sweeprun: --metrics-out/--trace-out need an observability "
                 "build (this binary was built with CHRONOS_OBS=OFF)\n");
    std::exit(2);
  }
  return cli;
}

/// --progress reporter: one throttled, stamped stderr line, written under
/// the printer's mutex. The final line (every owned cell done) always
/// prints; intermediate updates are rate-limited to one per ~250 ms.
class ProgressPrinter {
 public:
  void report(const exp::SweepProgress& progress) {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    const bool final = progress.cells_done >= progress.cells_total;
    if (!final && reported_once_ &&
        now - last_ < std::chrono::milliseconds(250)) {
      return;
    }
    reported_once_ = true;
    last_ = now;
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    std::string line = "sweep: " + std::to_string(progress.cells_done) +
                       "/" + std::to_string(progress.cells_total) +
                       " cells, " +
                       std::to_string(progress.replications_done) + " reps";
    if (elapsed > 0.0 && progress.replications_done > 0) {
      const double rate =
          static_cast<double>(progress.replications_done) / elapsed;
      line += ", " + numeric::format_double_fixed(rate, 1) + " reps/s";
    }
    // ETA from cells this run actually finished (resumed cells cost ~0).
    const std::size_t fresh_done =
        progress.cells_done - progress.cells_resumed;
    const std::size_t remaining =
        progress.cells_total - progress.cells_done;
    if (fresh_done > 0 && remaining > 0 && elapsed > 0.0) {
      const double eta =
          elapsed / static_cast<double>(fresh_done) *
          static_cast<double>(remaining);
      line += ", eta ~" + numeric::format_double_fixed(eta, 1) + "s";
    }
    std::fprintf(stderr, "%s [INFO] %s\n", log::stamp().c_str(),
                 line.c_str());
  }

 private:
  std::mutex mu_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::chrono::steady_clock::time_point last_{};
  bool reported_once_ = false;
};

/// Writes one output file, seen in a traced run as a "report.write" span.
void write_report(const std::string& path, const std::string& content) {
  obs::TraceSpan span("report.write", "exp");
  span.note("bytes", static_cast<double>(content.size()));
  exp::write_file(path, content);
}

/// Dumps the metrics registry / trace buffer after a successful run.
void write_obs_outputs(const Cli& cli) {
  if (!cli.metrics_out.empty()) {
    write_report(cli.metrics_out, obs::metrics_json());
    std::printf("metrics written to %s\n", cli.metrics_out.c_str());
  }
  if (!cli.trace_out.empty()) {
    exp::write_file(cli.trace_out, obs::stop_tracing_to_json());
    std::printf("trace written to %s\n", cli.trace_out.c_str());
  }
}

void render_reports(const exp::SweepResult& result,
                    const exp::ManifestOutputs& outputs, bool table) {
  if (table) {
    exp::to_table(result).print();
  }
  if (!outputs.csv.empty()) {
    write_report(outputs.csv, exp::to_csv(result));
    std::printf("\nCSV written to %s\n", outputs.csv.c_str());
  }
  if (!outputs.json.empty()) {
    write_report(outputs.json, exp::to_json(result));
    std::printf("\nJSON written to %s\n", outputs.json.c_str());
  }
}

/// --merge: fuse every shard journal (duplicates must match byte for byte)
/// and render the full-grid reports.
int run_merge(const exp::Manifest& manifest, const Cli& cli,
              const std::string& fingerprint,
              const std::string& shard_dir) {
  std::size_t count = cli.merge_count;
  if (count == 0) {
    count = cli.shard_count;
  }
  if (count == 0 && manifest.shard.count > 0) {
    count = static_cast<std::size_t>(manifest.shard.count);
  }
  if (count == 0) {
    std::fprintf(stderr,
                 "sweeprun: --merge needs a shard count (--merge N, "
                 "--shard I/N, or a [shard] count in the manifest)\n");
    return 2;
  }
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < count; ++i) {
    paths.push_back(exp::shard_journal_path(shard_dir, manifest.spec.name,
                                            i, count));
  }
  const std::size_t cells = manifest.spec.num_cells();
  const exp::FinishedCells merged =
      exp::merge_journals(paths, fingerprint, cells);
  std::printf("merged %zu shard journal(s): %zu cells", count, cells);
  if (merged.duplicates() > 0) {
    std::printf(", %zu duplicate entr%s dropped", merged.duplicates(),
                merged.duplicates() == 1 ? "y" : "ies");
  }
  std::printf("\n\n");

  // A fused journal is a valid unsharded journal for the same sweep: write
  // one when the manifest asks for a journal, so later unsharded runs (or
  // re-renders) can resume from the merged state.
  if (!manifest.outputs.journal.empty()) {
    exp::JournalWriter writer(manifest.outputs.journal, fingerprint);
    for (const auto& [cell, aggregate] : merged.cells()) {
      writer.append({cell, aggregate});
    }
    std::printf("fused journal written to %s\n\n",
                manifest.outputs.journal.c_str());
  }

  render_reports(exp::assemble_result(manifest.spec, merged.cells()),
                 manifest.outputs, !cli.no_table);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  install_signal_handlers();
  exp::Manifest manifest;
  try {
    manifest = exp::load_manifest(cli.manifest_path);
  } catch (const std::exception& error) {
    // Parse errors are already line-numbered; prefix the file so a cluster
    // log names which manifest was bad.
    std::fprintf(stderr, "sweeprun: %s: %s\n", cli.manifest_path.c_str(),
                 error.what());
    return 1;
  }
  if (!cli.trace_out.empty()) {
    obs::start_tracing();
    obs::set_trace_thread_name("main");
  }
  ProgressPrinter progress_printer;
  try {
    if (!cli.csv.empty()) manifest.outputs.csv = cli.csv;
    if (!cli.json.empty()) manifest.outputs.json = cli.json;
    if (!cli.journal.empty()) manifest.outputs.journal = cli.journal;
    const std::string shard_dir =
        cli.shard_dir.empty() ? manifest.shard.dir : cli.shard_dir;

    // The salt extends the journal fingerprint to the cell templates:
    // editing them invalidates an old journal instead of silently resuming
    // the old configuration's results.
    const std::string fingerprint =
        exp::spec_fingerprint(manifest.spec, manifest.journal_salt);

    // The one journal this process resumes and appends to: with --shard,
    // the shard's own file inside the shared directory (the manifest's
    // [output] journal then names the merge product); else the manifest's.
    const bool sharded = cli.shard_count > 0;
    const std::string journal =
        sharded ? exp::shard_journal_path(shard_dir, manifest.spec.name,
                                          cli.shard_index, cli.shard_count)
                : manifest.outputs.journal;

    if (cli.merge) {
      const int rc = run_merge(manifest, cli, fingerprint, shard_dir);
      if (rc == 0) write_obs_outputs(cli);
      return rc;
    }
    if (cli.fresh && !journal.empty()) {
      std::remove(journal.c_str());
    }

    const std::size_t cells = manifest.spec.num_cells();
    exp::SweepOptions options;
    options.threads = cli.threads;
    options.journal = journal;
    options.journal_salt = manifest.journal_salt;
    options.cancel = &g_cancel;
    // run_sweep's first progress call is its startup snapshot, made on this
    // thread before any cell runs: it reports what the journal restored.
    std::atomic<bool> started{false};
    options.on_progress = [&](const exp::SweepProgress& progress) {
      if (!started.exchange(true) && progress.cells_resumed > 0) {
        std::printf("  resuming from journal: %zu/%zu cells already done\n",
                    progress.cells_resumed, progress.cells_total);
      }
      if (cli.progress) {
        progress_printer.report(progress);
      }
    };

    std::printf("sweep '%s': %zu cells x %d replication(s)%s\n",
                manifest.spec.name.c_str(), cells,
                manifest.spec.replications,
                manifest.spec.adaptive.enabled() ? " (adaptive)" : "");
    if (manifest.spec.adaptive.enabled()) {
      std::printf("  adaptive: %s CI95 <= %g, batches of %d, cap %d\n",
                  manifest.spec.adaptive.metric.c_str(),
                  manifest.spec.adaptive.target_ci95,
                  manifest.spec.adaptive.batch,
                  manifest.spec.adaptive.max_replications);
    }
    if (sharded) {
      options.cells =
          exp::partition_cells(cells, cli.shard_index, cli.shard_count);
      const std::vector<std::size_t>& lease = *options.cells;
      if (lease.empty()) {
        std::printf("  shard %zu/%zu: no cells\n", cli.shard_index + 1,
                    cli.shard_count);
      } else {
        std::printf("  shard %zu/%zu: %zu cell(s), from cell %zu in steps "
                    "of %zu\n",
                    cli.shard_index + 1, cli.shard_count, lease.size(),
                    lease.front(), cli.shard_count);
      }
      std::error_code ignored;
      std::filesystem::create_directories(shard_dir, ignored);
    }

    const auto start = std::chrono::steady_clock::now();
    const exp::SweepResult result =
        exp::run_sweep(manifest.spec, exp::make_hooks(manifest), options);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf("  finished in %.3f s\n\n", seconds);

    if (sharded) {
      // Partial grids render no reports; --merge renders the full ones
      // once every shard journal is in the shared directory.
      std::printf("shard journal written to %s; run --merge once all %zu "
                  "shards are done\n",
                  journal.c_str(), cli.shard_count);
      write_obs_outputs(cli);
      return 0;
    }
    render_reports(result, manifest.outputs, !cli.no_table);
    write_obs_outputs(cli);
    return 0;
  } catch (const exp::SweepCancelled&) {
    // The engine stopped at a round barrier with every finished cell
    // journaled, flushed and fsynced; a rerun resumes from there.
    std::fprintf(stderr,
                 "sweeprun: interrupted; journal flushed and synced — rerun "
                 "to resume\n");
    return kInterruptedExit;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweeprun: %s\n", error.what());
    return 1;
  }
}
