#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace chronos::sim {

namespace {

// Registered once at load. A queue counts its own traffic (Traffic) and
// adds it here once, from its destructor, so the schedule/pop fast paths
// never touch the registry, and the totals are read after the run that
// owned the queue has ended. Strictly observational: nothing here feeds
// back into event order or timing.
const obs::Counter c_scheduled = obs::counter("sim.events_scheduled");
const obs::Counter c_fired = obs::counter("sim.events_fired");
const obs::Counter c_cancelled = obs::counter("sim.events_cancelled");
const obs::Counter c_slots_new = obs::counter("sim.slots_allocated");
const obs::Counter c_slots_reused = obs::counter("sim.slots_reused");
const obs::Gauge g_depth = obs::gauge("sim.queue_depth");

}  // namespace

EventQueue::~EventQueue() {
  c_scheduled.add(traffic_.scheduled);
  c_fired.add(traffic_.fired);
  c_cancelled.add(traffic_.cancelled);
  c_slots_new.add(traffic_.slots_new);
  c_slots_reused.add(traffic_.slots_reused);
  g_depth.update(traffic_.max_depth);
}

std::uint32_t EventQueue::acquire_slot(std::function<void()>&& fn) {
  std::uint32_t slot;
  if (free_head_ != 0) {
    slot = free_head_ - 1;
    free_head_ = slots_[slot].next_free;
    ++traffic_.slots_reused;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    ++traffic_.slots_new;
  }
  slots_[slot].fn = std::move(fn);
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  auto& s = slots_[slot];
  s.fn = nullptr;
  ++s.generation;  // invalidates any outstanding EventId
  s.next_free = free_head_;
  free_head_ = slot + 1;
}

void EventQueue::sift_up(std::size_t pos, const Entry& entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(entry, heap_[parent])) {
      break;
    }
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void EventQueue::sift_down(std::size_t pos, const Entry& entry) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * pos + 1;
    if (first >= n) {
      break;
    }
    const std::size_t last = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[least])) {
        least = child;
      }
    }
    if (!before(heap_[least], entry)) {
      break;
    }
    place(pos, heap_[least]);
    pos = least;
  }
  place(pos, entry);
}

void EventQueue::remove_at(std::size_t pos) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // the removed entry was the last one
  }
  if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

EventId EventQueue::push(Time at, std::uint64_t seq,
                         std::function<void()>&& fn) {
  CHRONOS_EXPECTS(at >= 0.0, "cannot schedule an event before time 0");
  CHRONOS_EXPECTS(static_cast<bool>(fn), "event callback must be callable");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, seq, slot});
  ++traffic_.scheduled;
  traffic_.max_depth = std::max(traffic_.max_depth, heap_.size());
  return EventId{static_cast<std::uint64_t>(slot) + 1,
                 slots_[slot].generation};
}

EventId EventQueue::schedule(Time at, std::function<void()>&& fn) {
  return push(at, kEventClass | next_seq_++, std::move(fn));
}

EventId EventQueue::schedule_arrival(Time at, std::function<void()>&& fn) {
  return push(at, next_seq_++, std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid()) {
    return false;
  }
  const std::uint64_t slot = id.value - 1;
  if (slot >= slots_.size() || slots_[slot].generation != id.generation) {
    return false;  // already fired, already cancelled, or a forged id
  }
  remove_at(slots_[slot].heap_pos);
  release_slot(static_cast<std::uint32_t>(slot));
  ++traffic_.cancelled;
  return true;
}

Time EventQueue::next_time() const {
  CHRONOS_EXPECTS(!heap_.empty(), "next_time on an empty queue");
  return heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  CHRONOS_EXPECTS(!heap_.empty(), "pop on an empty queue");
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    // Bottom-up: walk the root's hole down to a leaf along the smaller
    // child, then let the last entry rise from there.
    const std::size_t n = heap_.size();
    std::size_t pos = 0;
    for (std::size_t first = 1; first < n; first = kArity * pos + 1) {
      const std::size_t end = std::min(first + kArity, n);
      std::size_t least = first;
      for (std::size_t child = first + 1; child < end; ++child) {
        if (before(heap_[child], heap_[least])) {
          least = child;
        }
      }
      place(pos, heap_[least]);
      pos = least;
    }
    sift_up(pos, last);
  }
  auto& slot = slots_[top.slot];
  CHRONOS_ENSURES(static_cast<bool>(slot.fn), "live event lost its callback");
  Fired fired{top.time, std::move(slot.fn)};
  release_slot(top.slot);
  ++traffic_.fired;
  return fired;
}

void EventQueue::reserve(std::size_t n) {
  // Grow geometrically even when hinted: reserving exactly size() + n on
  // every burst would pin capacity to the request and force a full
  // reallocate-and-copy per burst (quadratic over repeated submissions).
  const auto grow = [](auto& vec, std::size_t want) {
    if (want > vec.capacity()) {
      vec.reserve(std::max(want, 2 * vec.capacity()));
    }
  };
  grow(heap_, heap_.size() + n);
  grow(slots_, slots_.size() + n);
}

}  // namespace chronos::sim
