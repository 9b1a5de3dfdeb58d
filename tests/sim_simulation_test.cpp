#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim_slots.hpp"

namespace hcmd::sim {
namespace {

using test::Slots;

constexpr double kHour = 3600.0;

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation s;
  Slots slots(s);
  std::vector<int> order;
  slots.at(3.0, [&] { order.push_back(3); });
  slots.at(1.0, [&] { order.push_back(1); });
  slots.at(2.0, [&] { order.push_back(2); });
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation s;
  Slots slots(s);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    slots.at(5.0, [&order, i] { order.push_back(i); });
  s.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation s;
  Slots slots(s);
  double seen = -1.0;
  slots.at(7.5, [&] { seen = s.now(); });
  s.run_until();
  EXPECT_EQ(seen, 7.5);
  EXPECT_EQ(s.now(), 7.5);
}

TEST(Simulation, RunUntilBoundIsInclusive) {
  Simulation s;
  Slots slots(s);
  int fired = 0;
  slots.at(10.0, [&] { ++fired; });
  slots.at(10.0001, [&] { ++fired; });
  s.run_until(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 10.0);  // clock advanced to the bound
  s.run_until(11.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation s;
  Slots slots(s);
  double seen = -1.0;
  slots.at(5.0, [&] { slots.in(2.5, [&] { seen = s.now(); }); });
  s.run_until();
  EXPECT_EQ(seen, 7.5);
}

TEST(Simulation, RejectsPastEvents) {
  Simulation s;
  Slots slots(s);
  slots.at(5.0, [] {});
  s.run_until();
  EXPECT_THROW(s.schedule_at(1.0, 0), std::logic_error);
  EXPECT_THROW(s.schedule_in(-1.0, 0), std::logic_error);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation s;
  Slots slots(s);
  bool fired = false;
  const auto timer = slots.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(slots.pending(timer));
  EXPECT_TRUE(slots.cancel(timer));
  EXPECT_FALSE(slots.pending(timer));
  EXPECT_FALSE(slots.cancel(timer));  // second cancel is a no-op
  s.run_until();
  EXPECT_FALSE(fired);
}

TEST(Simulation, HandleNotPendingAfterFire) {
  Simulation s;
  Slots slots(s);
  const auto timer = slots.at(1.0, [] {});
  s.run_until();
  EXPECT_FALSE(slots.pending(timer));
  EXPECT_FALSE(slots.cancel(timer));
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, DefaultHandleIsInert) {
  Simulation s;
  Key live = kNoTimer;
  EXPECT_FALSE(s.cancel(live));
  EXPECT_EQ(live, kNoTimer);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, StepRunsExactlyOne) {
  Simulation s;
  Slots slots(s);
  int fired = 0;
  slots.at(1.0, [&] { ++fired; });
  slots.at(2.0, [&] { ++fired; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(s.step());
}

TEST(Simulation, ProcessedEventCount) {
  Simulation s;
  Slots slots(s);
  for (int i = 0; i < 17; ++i) slots.at(i, [] {});
  EXPECT_EQ(s.run_until(), 17u);
  EXPECT_EQ(s.processed_events(), 17u);
}

TEST(Simulation, CancelledEventsNotCounted) {
  Simulation s;
  Slots slots(s);
  const auto first = slots.at(1.0, [] {});
  slots.at(2.0, [] {});
  slots.cancel(first);
  EXPECT_EQ(s.run_until(), 1u);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation s;
  Slots slots(s);
  std::vector<double> times;
  slots.at(1.0, [&] {
    times.push_back(s.now());
    slots.in(1.0, [&] { times.push_back(s.now()); });
  });
  s.run_until();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulation, DeterministicReplay) {
  auto run = [] {
    Simulation s;
    Slots slots(s);
    std::vector<double> trace;
    for (int i = 0; i < 100; ++i) {
      slots.at(static_cast<double>((i * 37) % 50),
               [&trace, &s] { trace.push_back(s.now()); });
    }
    s.run_until();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// --- hour buckets ----------------------------------------------------------

TEST(Simulation, EventOnHourBoundaryEqualToUntilFires) {
  // A timer exactly on a bucket boundary belongs to the later bucket; a
  // run_until that ends on that boundary must still open it.
  Simulation s;
  Slots slots(s);
  std::vector<double> times;
  slots.at(2.0 * kHour, [&] { times.push_back(s.now()); });
  slots.at(2.0 * kHour + 1e-6, [&] { times.push_back(s.now()); });
  EXPECT_EQ(s.run_until(2.0 * kHour), 1u);
  EXPECT_EQ(times, (std::vector<double>{2.0 * kHour}));
  EXPECT_EQ(s.now(), 2.0 * kHour);
  EXPECT_EQ(s.run_until(3.0 * kHour), 1u);
  EXPECT_EQ(times.back(), 2.0 * kHour + 1e-6);
}

TEST(Simulation, FireSchedulesIntoOpenAndNextHour) {
  Simulation s;
  Slots slots(s);
  std::vector<int> order;
  slots.at(100.0, [&] {
    order.push_back(0);
    slots.at(kHour + 50.0, [&] { order.push_back(3); });  // next hour
    slots.at(200.0, [&] { order.push_back(1); });         // open hour
    slots.at(kHour, [&] { order.push_back(2); });  // next hour's boundary
    slots.at(100.0, [&] { order.push_back(-1); });  // now: after this fire
  });
  slots.at(kHour - 1.0, [&] { order.push_back(-2); });
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, -2, 2, 3}));
  EXPECT_EQ(s.now(), kHour + 50.0);
}

TEST(Simulation, TimerBeyondRingHorizonFires) {
  // Ten thousand hours is far past the bucket ring: the timer waits in the
  // far heap and must still fire in order with ring and open-hour timers
  // scheduled around it, including ones armed after the ring moved on.
  Simulation s;
  Slots slots(s);
  std::vector<double> times;
  const auto record = [&] { times.push_back(s.now()); };
  slots.at(1e4 * kHour, record);
  slots.at(1e4 * kHour - 1.0, record);
  slots.at(3.0 * kHour, [&] {
    record();
    slots.at(9999.5 * kHour, record);
    slots.at(2e4 * kHour, record);
  });
  slots.at(10.0, record);
  EXPECT_EQ(s.pending_events(), 4u);
  EXPECT_EQ(s.run_until(), 6u);
  EXPECT_EQ(times,
            (std::vector<double>{10.0, 3.0 * kHour, 9999.5 * kHour,
                                 1e4 * kHour - 1.0, 1e4 * kHour,
                                 2e4 * kHour}));
}

TEST(Simulation, StepCrossesEmptyBuckets) {
  Simulation s;
  Slots slots(s);
  std::vector<double> times;
  for (const double t : {0.5 * kHour, 5.0 * kHour + 1.0, 300.0 * kHour,
                         2000.0 * kHour})
    slots.at(t, [&] { times.push_back(s.now()); });
  // A cancelled timer in an otherwise empty bucket is skipped too.
  slots.cancel(slots.at(40.0 * kHour, [] { FAIL() << "cancelled"; }));
  for (const double want : {0.5 * kHour, 5.0 * kHour + 1.0, 300.0 * kHour,
                            2000.0 * kHour}) {
    ASSERT_TRUE(s.step());
    EXPECT_EQ(s.now(), want);
  }
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.now(), 2000.0 * kHour);
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulation, PendingEventsExcludeCancelled) {
  Simulation s;
  Slots slots(s);
  std::vector<std::uint32_t> timers;
  for (const double t : {1.0, 2.0 * kHour, 30.0 * kHour, 900.0 * kHour,
                         1e5 * kHour})
    timers.push_back(slots.at(t, [] {}));
  EXPECT_EQ(s.pending_events(), 5u);
  slots.cancel(timers[1]);
  slots.cancel(timers[3]);
  EXPECT_EQ(s.pending_events(), 3u);
  slots.cancel(timers[3]);  // already cancelled
  EXPECT_EQ(s.pending_events(), 3u);
  EXPECT_EQ(s.run_until(31.0 * kHour), 2u);
  EXPECT_EQ(s.pending_events(), 1u);
  EXPECT_EQ(s.run_until(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.processed_events(), 3u);
}

TEST(Simulation, CancelledTimerDoesNotMoveClock) {
  Simulation s;
  Slots slots(s);
  slots.at(10.0, [] {});
  slots.cancel(slots.at(20.0, [] { FAIL() << "cancelled"; }));
  slots.cancel(slots.at(5.0 * kHour, [] { FAIL() << "cancelled"; }));
  EXPECT_EQ(s.run_until(), 1u);
  EXPECT_EQ(s.now(), 10.0);
  EXPECT_EQ(s.processed_events(), 1u);
  EXPECT_EQ(s.pending_events(), 0u);
}

}  // namespace
}  // namespace hcmd::sim
