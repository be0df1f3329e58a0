// Simulation clock and event loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sim/event_queue.h"

namespace chronos::sim {

class Simulator {
 public:
  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (>= now()).
  EventId at(Time at, std::function<void()>&& fn);

  /// Schedules an arrival `fn` at absolute time `at` (>= now()); it fires
  /// before every non-arrival event at that time (EventQueue's arrival
  /// class).
  EventId arrival_at(Time at, std::function<void()>&& fn);

  /// Schedules `fn` after `delay` seconds (>= 0).
  EventId after(double delay, std::function<void()>&& fn);

  /// Cancels a pending event; see EventQueue::cancel.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue drains.
  void run();

  /// Runs until the queue drains or simulated time would exceed `limit`;
  /// events at exactly `limit` still fire.
  void run_until(Time limit);

  /// Number of events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Capacity hint forwarded to the event queue; callers that know how many
  /// events a burst will schedule (e.g. a job submission) avoid mid-burst
  /// reallocation.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Pending events.
  std::size_t pending() const { return queue_.size(); }

 private:
  void step();

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace chronos::sim
