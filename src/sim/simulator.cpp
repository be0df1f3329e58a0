#include "sim/simulator.h"

#include "common/error.h"

namespace chronos::sim {

EventId Simulator::at(Time time, std::function<void()>&& fn) {
  CHRONOS_EXPECTS(time >= now_, "cannot schedule an event in the past");
  return queue_.schedule(time, std::move(fn));
}

EventId Simulator::arrival_at(Time time, std::function<void()>&& fn) {
  CHRONOS_EXPECTS(time >= now_, "cannot schedule an event in the past");
  return queue_.schedule_arrival(time, std::move(fn));
}

EventId Simulator::after(double delay, std::function<void()>&& fn) {
  CHRONOS_EXPECTS(delay >= 0.0, "delay must be non-negative");
  return queue_.schedule(now_ + delay, std::move(fn));
}

void Simulator::step() {
  auto fired = queue_.pop();
  CHRONOS_ENSURES(fired.time >= now_, "time must be monotone");
  now_ = fired.time;
  ++executed_;
  fired.fn();
}

void Simulator::run() {
  while (!queue_.empty()) {
    step();
  }
}

void Simulator::run_until(Time limit) {
  while (!queue_.empty() && queue_.next_time() <= limit) {
    step();
  }
}

}  // namespace chronos::sim
