// Cancellable discrete-event queue.
//
// Events fire in (time, insertion-sequence) order so that simultaneous
// events execute deterministically in scheduling order — a requirement for
// reproducible trace-driven runs.
//
// Storage is a slot arena plus an indexed 4-ary min-heap. Callbacks live in
// a generation-tagged slot vector with an intrusive free-list; each heap
// entry carries its own (time, seq) key and its slot index, so sifts compare
// entries without touching the arena, and each slot records where its entry
// sits in the heap. Cancellation is eager: `cancel` removes the entry at
// once (swap with the last entry, then sift), so the heap only ever holds
// runnable events and popping never skips dead ones. Fire/cancel bump the
// slot's generation, which is what makes a stale EventId harmless. After
// warm-up nothing is allocated per schedule/cancel/pop (slots and heap
// storage are recycled; small callbacks stay in std::function's inline
// buffer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace chronos::sim {

/// Simulated time, in seconds.
using Time = double;

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// Carries (slot, generation) so a handle outliving its event can never
/// cancel an unrelated event that reused the slot; the 64-bit generation
/// cannot wrap within any feasible run, so the guarantee is unconditional.
struct EventId {
  std::uint64_t value = 0;       ///< slot index + 1; 0 = invalid
  std::uint64_t generation = 0;  ///< slot generation at scheduling time
  bool valid() const { return value != 0; }
};

class EventQueue {
 public:
  /// Schedules `fn` to run at absolute time `at`. Requires at >= 0.
  EventId schedule(Time at, std::function<void()> fn);

  /// Cancels a pending event and removes it from the heap; returns false
  /// when the event already fired, was cancelled, or the id is invalid.
  /// Idempotent.
  bool cancel(EventId id);

  /// True when no pending events remain.
  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event. Requires !empty().
  Time next_time() const;

  /// Removes and returns the earliest pending event. Requires !empty().
  struct Fired {
    Time time;
    std::function<void()> fn;
  };
  Fired pop();

  /// Number of pending events.
  std::size_t size() const { return heap_.size(); }

  /// Capacity hint: pre-sizes the heap and the slot arena for `n` pending
  /// events so bulk scheduling (e.g. a job submission that launches every
  /// task's attempt) does not reallocate mid-burst.
  void reserve(std::size_t n);

 private:
  /// Children per heap node: a shallower tree than a binary heap, and the
  /// four children of a node are adjacent entries.
  static constexpr std::size_t kArity = 4;

  struct Entry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  /// Strict (time, seq) order; seq is unique, so no two entries tie.
  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  struct Slot {
    std::function<void()> fn;
    std::uint64_t generation = 0;  ///< bumped whenever the slot is released
    std::uint32_t heap_pos = 0;    ///< index of the slot's entry in heap_
    std::uint32_t next_free = 0;   ///< free-list link (index + 1; 0 = end)
  };

  std::uint32_t acquire_slot(std::function<void()> fn);
  void release_slot(std::uint32_t slot);

  /// Writes `entry` at heap index `pos` and records the position in its
  /// slot.
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Moves `entry`, destined for the hole at `pos`, toward the root (or
  /// the leaves) until the heap order holds.
  void sift_up(std::size_t pos, const Entry& entry);
  void sift_down(std::size_t pos, const Entry& entry);
  /// Removes the entry at heap index `pos`: the last entry fills the hole
  /// and is sifted whichever way restores the order.
  void remove_at(std::size_t pos);

  std::vector<Entry> heap_;  ///< 4-ary min-heap on (time, seq)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = 0;  ///< head of the free list (index + 1)
  std::uint64_t next_seq_ = 0;
};

}  // namespace chronos::sim
