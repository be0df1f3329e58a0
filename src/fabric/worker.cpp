#include "fabric/worker.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.h"
#include "exp/checkpoint.h"
#include "fabric/protocol.h"
#include "fabric/transport.h"
#include "obs/metrics.h"

namespace chronos::fabric {

namespace {

const obs::Counter c_worker_cells = obs::counter("fabric.worker.cells");
const obs::Counter c_worker_leases = obs::counter("fabric.worker.leases");

/// Sleeps `ms` in small slices, returning early (false) when `cancel` or
/// `stop` is raised.
bool interruptible_sleep(std::uint64_t ms, const std::atomic<bool>* cancel,
                         const std::atomic<bool>* stop) {
  for (std::uint64_t slept = 0; slept < ms; slept += 10) {
    if ((cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
        (stop != nullptr && stop->load(std::memory_order_relaxed))) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<std::uint64_t>(10, ms - slept)));
  }
  return true;
}

}  // namespace

int worker_exit_code(WorkerOutcome outcome) {
  switch (outcome) {
    case WorkerOutcome::kDone:
      return 0;
    case WorkerOutcome::kLost:
      return 1;
    case WorkerOutcome::kRejected:
      return 2;
    case WorkerOutcome::kFaultStop:
      return 3;
    case WorkerOutcome::kCancelled:
      return 130;
  }
  return 1;
}

WorkerOutcome run_worker(const exp::SweepSpec& spec,
                         const exp::SweepHooks& hooks,
                         const WorkerOptions& options) {
  spec.validate();
  CHRONOS_EXPECTS(!options.fingerprint.empty(),
                  "worker needs a spec fingerprint");
  CHRONOS_EXPECTS(options.want >= 1, "worker must want at least one cell");
  const Endpoint endpoint = parse_endpoint(options.address);
  const std::unique_ptr<Stream> stream =
      connect_with_retry(endpoint, options.connect_attempts,
                         options.connect_backoff_ms, options.cancel);
  if (stream == nullptr) {
    return options.cancel != nullptr &&
                   options.cancel->load(std::memory_order_relaxed)
               ? WorkerOutcome::kCancelled
               : WorkerOutcome::kLost;
  }
  FaultStream out(*stream, options.fault);
  std::mutex send_mu;

  // --- handshake: hello -> welcome (resent on a lost reply) ---------------
  std::uint64_t worker_id = 0;
  std::uint64_t heartbeat_ms = 0;
  {
    Frame hello;
    hello.type = FrameType::kHello;
    hello.value = kProtocolVersion;
    hello.fingerprint = options.fingerprint;
    hello.name = options.name;
    const std::string hello_line = encode_frame(hello);
    bool welcomed = false;
    for (int attempt = 0; attempt < 5 && !welcomed; ++attempt) {
      switch (out.send_frame(hello_line)) {
        case FaultStream::Send::kTorn:
          stream->close();
          return WorkerOutcome::kFaultStop;
        case FaultStream::Send::kError:
          return WorkerOutcome::kLost;
        case FaultStream::Send::kDropped:
        case FaultStream::Send::kSent:
          break;
      }
      std::string line;
      const Stream::Recv status = stream->recv_line(line, 2000);
      if (status == Stream::Recv::kTimeout) {
        continue;  // reply (or our hello) went missing; try again
      }
      if (status == Stream::Recv::kClosed) {
        return WorkerOutcome::kLost;
      }
      const std::optional<Frame> reply = decode_frame(line);
      if (!reply.has_value()) {
        return WorkerOutcome::kLost;
      }
      if (reply->type == FrameType::kReject) {
        return WorkerOutcome::kRejected;
      }
      if (reply->type != FrameType::kWelcome) {
        return WorkerOutcome::kLost;
      }
      worker_id = reply->worker;
      heartbeat_ms = std::max<std::uint64_t>(reply->value, 1);
      welcomed = true;
    }
    if (!welcomed) {
      return WorkerOutcome::kLost;
    }
  }

  // --- heartbeat thread ---------------------------------------------------
  // Sends at half the controller's advertised interval so one lost or
  // delayed beat never trips the deadline. The hang fault silences it too:
  // a wedged process stops doing everything.
  std::atomic<bool> stop_heartbeats{false};
  std::atomic<bool> hang{false};
  std::atomic<std::uint64_t> cells_completed{0};
  std::thread heartbeat_thread([&] {
    while (!stop_heartbeats.load(std::memory_order_relaxed)) {
      if (!interruptible_sleep(std::max<std::uint64_t>(heartbeat_ms / 2, 5),
                               nullptr, &stop_heartbeats)) {
        return;
      }
      if (hang.load(std::memory_order_relaxed)) {
        continue;
      }
      Frame beat;
      beat.type = FrameType::kHeartbeat;
      beat.worker = worker_id;
      beat.value = cells_completed.load(std::memory_order_relaxed);
      const std::string line = encode_frame(beat);
      std::lock_guard<std::mutex> lock(send_mu);
      out.send_heartbeat(line);
    }
  });
  // finish() joins the heartbeat thread, which blocks on send_mu to emit a
  // beat — so it must NEVER run with send_mu held, or a beat fired at just
  // the wrong instant deadlocks the join. Every send below scopes its
  // lock_guard tightly and calls finish() only after releasing it.
  const auto finish = [&](WorkerOutcome outcome) {
    stop_heartbeats.store(true, std::memory_order_relaxed);
    heartbeat_thread.join();
    return outcome;
  };

  // --- lease loop ---------------------------------------------------------
  exp::SweepOptions one_cell;  // single-threaded; cells set per leased cell
  std::uint64_t results_sent = 0;
  int consecutive_timeouts = 0;
  while (true) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      Frame bye;
      bye.type = FrameType::kBye;
      bye.worker = worker_id;
      {
        std::lock_guard<std::mutex> lock(send_mu);
        out.send_frame(encode_frame(bye));
      }
      return finish(WorkerOutcome::kCancelled);
    }
    {
      Frame request;
      request.type = FrameType::kRequest;
      request.worker = worker_id;
      request.value = options.want;
      const std::string line = encode_frame(request);
      FaultStream::Send sent;
      {
        std::lock_guard<std::mutex> lock(send_mu);
        sent = out.send_frame(line);
      }
      switch (sent) {
        case FaultStream::Send::kTorn:
          stream->close();
          return finish(WorkerOutcome::kFaultStop);
        case FaultStream::Send::kError:
          return finish(WorkerOutcome::kLost);
        case FaultStream::Send::kDropped:
        case FaultStream::Send::kSent:
          break;  // a dropped request surfaces as a recv timeout below
      }
    }
    std::string line;
    const Stream::Recv status = stream->recv_line(
        line, static_cast<int>(std::max<std::uint64_t>(heartbeat_ms * 4,
                                                       500)));
    if (status == Stream::Recv::kTimeout) {
      // Lost request or lost reply; ask again. The controller's
      // revoke-on-request makes the retry idempotent.
      if (++consecutive_timeouts > 20) {
        return finish(WorkerOutcome::kLost);
      }
      continue;
    }
    if (status == Stream::Recv::kClosed) {
      return finish(WorkerOutcome::kLost);
    }
    consecutive_timeouts = 0;
    const std::optional<Frame> reply = decode_frame(line);
    if (!reply.has_value()) {
      return finish(WorkerOutcome::kLost);
    }
    if (reply->type == FrameType::kWait) {
      interruptible_sleep(std::min<std::uint64_t>(reply->value, 1000),
                          options.cancel, nullptr);
      continue;
    }
    if (reply->type == FrameType::kDone) {
      Frame bye;
      bye.type = FrameType::kBye;
      bye.worker = worker_id;
      {
        std::lock_guard<std::mutex> lock(send_mu);
        out.send_frame(encode_frame(bye));
      }
      return finish(WorkerOutcome::kDone);
    }
    if (reply->type != FrameType::kLease) {
      return finish(WorkerOutcome::kLost);
    }

    c_worker_leases.add();
    for (const std::uint64_t cell : reply->cells) {
      exp::JournalEntry entry;
      entry.cell = static_cast<std::size_t>(cell);
      one_cell.cells = std::vector<std::size_t>{entry.cell};
      entry.aggregate =
          exp::run_sweep(spec, hooks, one_cell).cells.front().aggregate;
      c_worker_cells.add();
      Frame result;
      result.type = FrameType::kResult;
      result.worker = worker_id;
      result.lease = reply->lease;
      result.entry = exp::encode_journal_entry(entry);
      if (options.fault.delay_cell_ms > 0) {
        interruptible_sleep(options.fault.delay_cell_ms, options.cancel,
                            nullptr);
      }
      if (options.fault.hang_after_cells > 0 &&
          results_sent >= options.fault.hang_after_cells) {
        // Wedge: no result, no heartbeat, no disconnect. The controller's
        // heartbeat deadline must dig the cells out.
        hang.store(true, std::memory_order_relaxed);
        std::string ignored;
        while (stream->recv_line(ignored, 60000) == Stream::Recv::kLine) {
        }
        return finish(WorkerOutcome::kFaultStop);
      }
      {
        const std::string result_line = encode_frame(result);
        FaultStream::Send sent;
        {
          std::lock_guard<std::mutex> lock(send_mu);
          sent = out.send_frame(result_line);
        }
        switch (sent) {
          case FaultStream::Send::kTorn:
            stream->close();
            return finish(WorkerOutcome::kFaultStop);
          case FaultStream::Send::kError:
            return finish(WorkerOutcome::kLost);
          case FaultStream::Send::kDropped:
          case FaultStream::Send::kSent:
            break;
        }
      }
      results_sent += 1;
      cells_completed.fetch_add(1, std::memory_order_relaxed);
      if (options.fault.kill_after_cells > 0 &&
          results_sent >= options.fault.kill_after_cells) {
        // Crash: abrupt close, no bye — exactly what kill -9 looks like
        // from the controller's side.
        stream->close();
        return finish(WorkerOutcome::kFaultStop);
      }
    }
  }
}

}  // namespace chronos::fabric
