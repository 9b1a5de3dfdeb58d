#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hcmd::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.schedule_at(5.0, [&order, i] { order.push_back(i); });
  s.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation s;
  double seen = -1.0;
  s.schedule_at(7.5, [&] { seen = s.now(); });
  s.run_until();
  EXPECT_EQ(seen, 7.5);
  EXPECT_EQ(s.now(), 7.5);
}

TEST(Simulation, RunUntilBoundIsInclusive) {
  Simulation s;
  int fired = 0;
  s.schedule_at(10.0, [&] { ++fired; });
  s.schedule_at(10.0001, [&] { ++fired; });
  s.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 10.0);  // clock advanced to the bound
  s.run_until(11.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation s;
  double seen = -1.0;
  s.schedule_at(5.0, [&] {
    s.schedule_in(2.5, [&] { seen = s.now(); });
  });
  s.run_until();
  EXPECT_EQ(seen, 7.5);
}

TEST(Simulation, RejectsPastEvents) {
  Simulation s;
  s.schedule_at(5.0, [] {});
  s.run_until();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::logic_error);
  EXPECT_THROW(s.schedule_in(-1.0, [] {}), std::logic_error);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  EventHandle h = s.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());  // second cancel is a no-op
  s.run_until();
  EXPECT_FALSE(fired);
}

TEST(Simulation, HandleNotPendingAfterFire) {
  Simulation s;
  EventHandle h = s.schedule_at(1.0, [] {});
  s.run_until();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Simulation, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.cancel());
}

TEST(Simulation, StepRunsExactlyOne) {
  Simulation s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulation, ProcessedEventCount) {
  Simulation s;
  for (int i = 0; i < 17; ++i) s.schedule_at(i, [] {});
  EXPECT_EQ(s.run_until(), 17u);
  EXPECT_EQ(s.processed_events(), 17u);
}

TEST(Simulation, CancelledEventsNotCounted) {
  Simulation s;
  EventHandle h = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  h.cancel();
  EXPECT_EQ(s.run_until(), 1u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation s;
  std::vector<double> times;
  s.schedule_at(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.0, [&] { times.push_back(s.now()); });
  });
  s.run_until();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulation, DeterministicReplay) {
  auto run = [] {
    Simulation s;
    std::vector<double> trace;
    for (int i = 0; i < 100; ++i) {
      s.schedule_at(static_cast<double>((i * 37) % 50),
                    [&trace, &s] { trace.push_back(s.now()); });
    }
    s.run_until();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hcmd::sim
