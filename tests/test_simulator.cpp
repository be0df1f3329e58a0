#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"

namespace chronos::sim {
namespace {

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0.0);
  std::vector<double> times;
  simulator.at(2.0, [&] { times.push_back(simulator.now()); });
  simulator.at(5.0, [&] { times.push_back(simulator.now()); });
  simulator.run();
  EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
  EXPECT_EQ(simulator.now(), 5.0);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.at(3.0, [&] {
    simulator.after(2.0, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 5.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) {
      // The simulator takes its callback by rvalue: re-arm with a copy.
      simulator.after(1.0, std::function<void()>(chain));
    }
  };
  simulator.after(1.0, std::function<void()>(chain));
  simulator.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(simulator.now(), 10.0);
  EXPECT_EQ(simulator.events_executed(), 10u);
}

TEST(Simulator, RunUntilStopsAtLimit) {
  Simulator simulator;
  std::vector<double> fired;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    simulator.at(t, [&, t] { fired.push_back(t); });
  }
  simulator.run_until(4.0);
  EXPECT_EQ(fired.size(), 4u);  // events at exactly the limit still fire
  EXPECT_EQ(simulator.events_executed(), 4u);
  simulator.run();  // the other 6 stayed queued past the limit
  EXPECT_EQ(fired.size(), 10u);
  EXPECT_EQ(simulator.events_executed(), 10u);
}

TEST(Simulator, CancelWorksThroughFacade) {
  Simulator simulator;
  bool fired = false;
  const auto id = simulator.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(simulator.cancel(id));
  simulator.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator simulator;
  simulator.at(5.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.at(4.0, [] {}), PreconditionError);
  EXPECT_THROW(simulator.after(-1.0, [] {}), PreconditionError);
}

TEST(Simulator, ZeroDelayFiresAtCurrentTime) {
  Simulator simulator;
  double fired_at = -1.0;
  simulator.at(3.0, [&] {
    simulator.after(0.0, [&] { fired_at = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(fired_at, 3.0);
}

}  // namespace
}  // namespace chronos::sim
