#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "common/error.h"

namespace chronos::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().fn();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueue, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelMiddleEventSkipsIt) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const auto id = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  const auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, PopReportsScheduledTime) {
  EventQueue q;
  q.schedule(4.5, [] {});
  EXPECT_EQ(q.pop().time, 4.5);
}

TEST(EventQueue, RejectsInvalidSchedules) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(q.schedule(1.0, std::function<void()>{}), PreconditionError);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), PreconditionError);
  EXPECT_THROW(q.next_time(), PreconditionError);
}

// --- slot-arena semantics ---------------------------------------------------

TEST(EventQueue, StaleIdCannotCancelSlotReuse) {
  // After an event fires, its arena slot is recycled. The old handle's
  // generation tag no longer matches, so it must not cancel the newcomer.
  EventQueue q;
  const auto old_id = q.schedule(1.0, [] {});
  q.pop().fn();
  bool fired = false;
  q.schedule(2.0, [&] { fired = true; });  // likely reuses the slot
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleIdAfterCancelCannotCancelSlotReuse) {
  EventQueue q;
  const auto old_id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  q.schedule(2.0, [] {});
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ReserveDoesNotDisturbSemantics) {
  EventQueue q;
  q.reserve(64);
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(2); });
  const auto id = q.schedule(1.5, [&] { order.push_back(-1); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.cancel(id);
  while (!q.empty()) {
    q.pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ChurnReusesSlotsWithCorrectOrdering) {
  // Heavy schedule/cancel/fire churn across recycled slots: (time, seq)
  // determinism and cancellation must survive arbitrary slot reuse.
  EventQueue q;
  std::vector<int> fired;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 20; ++i) {
      const int tag = round * 100 + i;
      ids.push_back(q.schedule(static_cast<double>(i % 7),
                               [&fired, tag] { fired.push_back(tag); }));
    }
    for (int i = 0; i < 20; i += 3) {
      q.cancel(ids[static_cast<std::size_t>(i)]);
    }
    double last = -1.0;
    while (!q.empty()) {
      const auto f = q.pop();
      EXPECT_GE(f.time, last);
      last = f.time;
      f.fn();
    }
  }
  // 50 rounds x 20 events, minus 7 cancellations per round.
  EXPECT_EQ(fired.size(), 50u * 13u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  double last = -1.0;
  for (int i = 0; i < 5000; ++i) {
    q.schedule(static_cast<double>((i * 7919) % 1000), [] {});
  }
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

// --- model-based check -----------------------------------------------------

TEST(EventQueue, MatchesOrderedSetModelUnderRandomCancelsAndPops) {
  // 200k random operations against a reference std::set of (time, seq):
  // schedules on a coarse time grid (ties are common), cancels of live,
  // already-fired and already-cancelled ids, and pops. The schedule rate
  // swings between filling and draining phases so cancels and pops also
  // hit the heap at depth, where a wrong heap position would surface.
  struct Live {
    EventId id;
    double time;
  };
  EventQueue q;
  std::set<std::pair<double, std::uint64_t>> model;
  std::vector<std::pair<std::uint64_t, Live>> live;  // seq -> id, unordered
  std::vector<std::size_t> live_index;  // seq -> index in live (or npos)
  std::vector<EventId> fired_ids;
  std::vector<EventId> cancelled_ids;
  std::vector<std::uint64_t> fired;  // seqs, in firing order
  constexpr std::size_t kNone = ~std::size_t{0};
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto drop_live = [&](std::uint64_t seq) {
    const std::size_t at = live_index[seq];
    live_index[live.back().first] = at;
    live[at] = live.back();
    live.pop_back();
    live_index[seq] = kNone;
  };
  std::size_t max_depth = 0;
  for (int op = 0; op < 200000; ++op) {
    const double schedule_share = (op / 10000) % 2 == 0 ? 0.6 : 0.25;
    const double u = unit(rng);
    if (u < schedule_share) {
      const double time = 0.25 * static_cast<double>(pick(16));
      const std::uint64_t seq = live_index.size();
      const EventId id =
          q.schedule(time, [&fired, seq] { fired.push_back(seq); });
      model.emplace(time, seq);
      live_index.push_back(live.size());
      live.push_back({seq, Live{id, time}});
    } else if (u < schedule_share + 0.15) {
      // Cancel: mostly live ids, sometimes dead ones whose slot has
      // likely been reused.
      const double kind = unit(rng);
      if (kind < 0.7 && !live.empty()) {
        const auto [seq, entry] = live[pick(live.size())];
        ASSERT_TRUE(q.cancel(entry.id)) << "op " << op;
        model.erase({entry.time, seq});
        drop_live(seq);
        cancelled_ids.push_back(entry.id);
      } else if (kind < 0.85 && !fired_ids.empty()) {
        ASSERT_FALSE(q.cancel(fired_ids[pick(fired_ids.size())]))
            << "op " << op;
      } else if (!cancelled_ids.empty()) {
        ASSERT_FALSE(q.cancel(cancelled_ids[pick(cancelled_ids.size())]))
            << "op " << op;
      }
    } else if (!model.empty()) {
      const auto [time, seq] = *model.begin();
      model.erase(model.begin());
      auto popped = q.pop();
      ASSERT_EQ(popped.time, time) << "op " << op;
      const std::size_t fired_before = fired.size();
      popped.fn();
      ASSERT_EQ(fired.size(), fired_before + 1) << "op " << op;
      ASSERT_EQ(fired.back(), seq) << "op " << op;
      fired_ids.push_back(live[live_index[seq]].second.id);
      drop_live(seq);
    }
    ASSERT_EQ(q.size(), model.size()) << "op " << op;
    ASSERT_EQ(q.empty(), model.empty()) << "op " << op;
    if (!model.empty()) {
      ASSERT_EQ(q.next_time(), model.begin()->first) << "op " << op;
    }
    max_depth = std::max(max_depth, model.size());
  }
  EXPECT_GT(max_depth, 1000u);  // the filling phases reach real depth
  EXPECT_GT(cancelled_ids.size(), 10000u);
}

}  // namespace
}  // namespace chronos::sim
