// Sweep-fabric worker: connects to a controller, leases cells, runs each
// leased cell through exp::run_sweep on one thread with SweepOptions::cells
// set to that one cell, and streams the results back as journal entries,
// one per cell.
//
// run_sweep splits every cell's seed stream off the master in full grid
// order whatever cells it is given, so a worker needs nothing but the
// manifest the controller also loaded: any worker can compute any cell, any
// number of times, with bit-identical bytes. The worker keeps a heartbeat
// thread so the controller can tell a slow worker from a dead one, retries
// its initial connect with exponential backoff, and re-requests work when a
// reply goes missing — the controller's revoke-on-request logic makes that
// safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "exp/sweep.h"
#include "fabric/fault.h"

namespace chronos::fabric {

struct WorkerOptions {
  std::string address;      ///< controller endpoint (transport.h syntax)
  std::string fingerprint;  ///< must match the controller's
  std::string name = "worker";
  std::uint64_t want = 2;   ///< cells to request per lease
  int connect_attempts = 10;
  int connect_backoff_ms = 50;
  FaultPlan fault;          ///< deterministic fault injection (tests/CI)
  const std::atomic<bool>* cancel = nullptr;
};

enum class WorkerOutcome {
  kDone,       ///< controller reported the sweep complete
  kLost,       ///< connection lost / controller gone / protocol breakdown
  kRejected,   ///< controller refused the handshake (wrong fingerprint)
  kFaultStop,  ///< a planned fault (kill/hang/torn) ended this worker
  kCancelled,  ///< the cancel flag was raised (SIGINT/SIGTERM)
};

/// Process exit code for an outcome (done=0, lost=1, rejected=2, fault=3,
/// cancelled=130).
int worker_exit_code(WorkerOutcome outcome);

/// Runs one worker to completion against `spec`/`hooks` (which must be
/// built from the same manifest as the controller's — the fingerprint
/// handshake enforces it).
WorkerOutcome run_worker(const exp::SweepSpec& spec,
                         const exp::SweepHooks& hooks,
                         const WorkerOptions& options);

}  // namespace chronos::fabric
