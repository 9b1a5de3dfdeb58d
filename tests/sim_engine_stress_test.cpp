// Stress and arena-lifecycle tests for the pooled DES core: bit-identical
// replay under a large randomized op mix, FIFO ordering among simultaneous
// events at scale, and slot-reuse/generation semantics of EventHandle.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace hcmd::sim {
namespace {

/// Runs a randomized schedule/cancel/run workload of ~1e6 operations
/// and returns a trace fingerprint: a running hash of (event id, fire time)
/// in dispatch order. Two runs with the same seed must agree bit-exactly.
struct StressResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t processed = 0;
};

StressResult run_stress(std::uint64_t seed, std::size_t ops) {
  Simulation sim;
  util::Rng rng(seed);
  StressResult out;

  auto mix = [&out](std::uint64_t id, SimTime t) {
    // Order-sensitive hash: any difference in dispatch order or times
    // changes the fingerprint.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t));
    __builtin_memcpy(&bits, &t, sizeof(bits));
    out.fingerprint = out.fingerprint * 0x9E3779B97F4A7C15ull + id;
    out.fingerprint ^= bits + (out.fingerprint << 6) + (out.fingerprint >> 2);
    ++out.fired;
  };

  std::vector<EventHandle> handles;
  handles.reserve(ops / 4);
  std::uint64_t next_id = 0;

  for (std::size_t i = 0; i < ops; ++i) {
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.45) {
      // One-shot at a random future time.
      const std::uint64_t id = next_id++;
      const SimTime t = sim.now() + rng.uniform(0.0, 1000.0);
      handles.push_back(sim.schedule_at(t, [&mix, id, t] { mix(id, t); }));
    } else if (pick < 0.75 && !handles.empty()) {
      // Cancel a random outstanding handle (may already be spent).
      const auto idx =
          static_cast<std::size_t>(rng.uniform(0.0, 1.0) * handles.size());
      if (handles[idx % handles.size()].cancel()) ++out.cancelled;
    } else {
      // Advance the clock a little, firing whatever is due.
      sim.run_until(sim.now() + rng.uniform(0.0, 5.0));
    }
  }
  sim.run_until(sim.now() + 5000.0);  // drain what remains
  out.processed = sim.processed_events();
  return out;
}

TEST(SimulationStress, RandomizedMixReplaysBitIdentically) {
  // ~1e6 randomized schedule/cancel/run operations; the dispatch
  // trace (ids and times, in order) must be bit-identical across replays.
  const StressResult a = run_stress(17, 1'000'000);
  const StressResult b = run_stress(17, 1'000'000);
  EXPECT_GT(a.fired, 100'000u);
  // Cancel picks a uniformly random handle, most of which are already
  // spent; a few hundred live cancels is the expected yield.
  EXPECT_GT(a.cancelled, 500u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.processed, b.processed);

  // A different seed must (overwhelmingly) produce a different trace.
  const StressResult c = run_stress(18, 1'000'000);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(SimulationStress, SimultaneousEventsKeepScheduleOrderAtScale) {
  // 10k events at the same instant interleaved with cancels: survivors
  // must fire in exactly the order they were scheduled.
  Simulation sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 10'000;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(sim.schedule_at(42.0, [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < kEvents; i += 3) handles[i].cancel();  // every third
  sim.run_until();
  int expected = 0;
  std::size_t at = 0;
  for (int i = 0; i < kEvents; ++i) {
    if (i % 3 == 0) continue;  // cancelled
    ASSERT_LT(at, order.size());
    EXPECT_EQ(order[at], i) << "survivor " << expected << " out of order";
    ++at;
    ++expected;
  }
  EXPECT_EQ(order.size(), static_cast<std::size_t>(expected));
}

TEST(SimulationArena, SlotsAreReusedAcrossEventLifetimes) {
  // Churning one event at a time must not grow memory: the arena recycles
  // the same slot, which is observable through handles going stale.
  Simulation sim;
  for (int round = 0; round < 10'000; ++round) {
    EventHandle h = sim.schedule_at(sim.now() + 1.0, [] {});
    EXPECT_TRUE(h.pending());
    sim.step();
    EXPECT_FALSE(h.pending());
    EXPECT_FALSE(h.cancel());  // fired: cancel is a no-op
  }
  EXPECT_EQ(sim.processed_events(), 10'000u);
}

TEST(SimulationArena, StaleHandleToReusedSlotIsInert) {
  Simulation sim;
  // First occupant of the slot.
  EventHandle first = sim.schedule_at(1.0, [] {});
  sim.step();  // fires; slot returns to the free list
  EXPECT_FALSE(first.pending());

  // Second occupant reuses the same slot with a bumped generation.
  bool second_fired = false;
  EventHandle second =
      sim.schedule_at(2.0, [&second_fired] { second_fired = true; });
  EXPECT_TRUE(second.pending());

  // The stale handle must neither report pending nor cancel the newcomer.
  EXPECT_FALSE(first.pending());
  EXPECT_FALSE(first.cancel());
  EXPECT_TRUE(second.pending());

  sim.step();
  EXPECT_TRUE(second_fired);
}

TEST(SimulationArena, CancelledSlotReuseKeepsGenerationsDistinct) {
  Simulation sim;
  EventHandle a = sim.schedule_at(5.0, [] { FAIL() << "a was cancelled"; });
  EXPECT_TRUE(a.cancel());
  EXPECT_FALSE(a.cancel());  // double-cancel is a no-op

  bool b_fired = false;
  EventHandle b = sim.schedule_at(6.0, [&b_fired] { b_fired = true; });
  // `a`'s slot was recycled for `b`; the spent handle must not touch it.
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(a.cancel());
  EXPECT_TRUE(b.pending());
  sim.run_until();
  EXPECT_TRUE(b_fired);
}

TEST(SimulationArena, ReserveEventsPreservesBehaviour) {
  // Pre-reserving must not change dispatch order relative to organic
  // growth (slots come off the free list in the same order).
  auto run = [](bool reserve) {
    Simulation sim;
    if (reserve) sim.reserve_events(512);
    std::vector<int> order;
    for (int i = 0; i < 300; ++i) {
      sim.schedule_at(static_cast<double>(i % 7), [&order, i] {
        order.push_back(i);
      });
    }
    sim.run_until();
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace hcmd::sim
