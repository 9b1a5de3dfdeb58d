// Asserts the DES core's zero-allocation guarantee: once the heaps and the
// bucket chunk pool are at their high-water mark, schedule / cancel / fire
// perform no heap allocation at all. Counted by alloc_counter.cpp, which
// replaces the global allocation functions for this whole binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alloc_counter.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace hcmd::sim {
namespace {

using test::AllocationWindow;

/// Counts fires; tag t > 0 is cancellable through live[t - 1].
struct Counter final : Dispatcher {
  explicit Counter(Simulation& sim) { sim.set_dispatcher(this); }
  bool fire(Key key) override {
    const std::uint32_t tag = tag_of(key);
    if (tag > 0) {
      Key& slot = live[tag - 1];
      if (slot != key) return false;
      slot = kNoTimer;
    }
    ++fired;
    return true;
  }
  std::vector<Key> live;
  std::uint64_t fired = 0;
};

TEST(SimulationAllocation, SteadyStateScheduleFireIsAllocationFree) {
  Simulation sim;
  Counter counter(sim);
  util::Rng rng(7);
  const auto churn = [&](std::size_t rounds) {
    for (std::size_t i = 0; i < rounds; ++i) {
      sim.schedule_at(sim.now() + rng.uniform(0.0, 100.0), 0);
      sim.step();
    }
  };

  // Reach the high-water mark: heap, bucket chunks and chunk free list all
  // sized. The warm-up churn crosses an hour boundary, so timers have gone
  // through a bucket before the window opens.
  constexpr std::size_t kDepth = 4096;
  for (std::size_t i = 0; i < kDepth; ++i)
    sim.schedule_at(rng.uniform(0.0, 100.0), 0);
  for (std::size_t i = 0; i < kDepth / 2; ++i) sim.step();
  churn(200'000);
  ASSERT_GT(sim.now(), 3600.0);

  // Steady state: every schedule and fire below must reuse pooled storage.
  AllocationWindow window;
  churn(100'000);
  EXPECT_EQ(window.count(), 0u)
      << "schedule/fire churn allocated in steady state";
  EXPECT_GT(counter.fired, 0u);
}

TEST(SimulationAllocation, SteadyStateCancelIsAllocationFree) {
  Simulation sim;
  Counter counter(sim);
  util::Rng rng(11);
  constexpr std::size_t kDepth = 2048;
  counter.live.assign(kDepth, kNoTimer);
  const auto arm = [&](std::size_t i, double t) {
    counter.live[i] = sim.schedule_at(t, static_cast<std::uint32_t>(i + 1));
  };
  for (std::size_t i = 0; i < kDepth; ++i) arm(i, rng.uniform(0.0, 100.0));
  const auto churn = [&](std::size_t rounds) {
    for (std::size_t round = 0; round < rounds; ++round) {
      const std::size_t i = round % kDepth;
      sim.cancel(counter.live[i]);  // a cancel never allocates
      arm(i, sim.now() + rng.uniform(0.0, 100.0));
      if (round % 2 == 0) sim.step();
    }
  };
  // Cancelled entries stay queued until they reach the front: warm up
  // until their number is at its steady level too.
  churn(50'000);

  AllocationWindow window;
  churn(50'000);
  EXPECT_EQ(window.count(), 0u)
      << "schedule/cancel churn allocated in steady state";
  // Queued timers net of cancels are exactly the keys still held.
  EXPECT_EQ(sim.pending_events(),
            static_cast<std::size_t>(std::count_if(
                counter.live.begin(), counter.live.end(),
                [](Key k) { return k != kNoTimer; })));
}

TEST(SimulationAllocation, ReserveEventsMakesColdBurstAllocationFree) {
  Simulation sim;
  Counter counter(sim);
  sim.reserve_events(10'000);

  // Three hours of timers: the open hour's heap and two buckets.
  AllocationWindow window;
  for (std::size_t i = 0; i < 10'000; ++i)
    sim.schedule_at(static_cast<double>(i), 0);
  sim.run_until();
  EXPECT_EQ(window.count(), 0u) << "burst within reservation allocated";
  EXPECT_EQ(counter.fired, 10'000u);
}

}  // namespace
}  // namespace hcmd::sim
