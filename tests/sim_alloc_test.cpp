// Asserts the DES core's zero-allocation guarantee: once the arena and
// heap are at their high-water mark, schedule / cancel / fire perform no
// heap allocation at all. Counted by alloc_counter.cpp, which replaces the
// global allocation functions for this whole binary.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace hcmd::sim {
namespace {

using test::AllocationWindow;

TEST(SimulationAllocation, SteadyStateScheduleFireIsAllocationFree) {
  Simulation sim;
  util::Rng rng(7);
  std::uint64_t fired = 0;
  // Callable with a capture large enough to be representative (24 bytes)
  // yet inside SmallFn's inline buffer.
  struct Cb {
    std::uint64_t* fired;
    double a, b;
    void operator()() const { ++*fired; }
  };
  const Cb cb{&fired, 1.0, 2.0};

  // Reach the high-water mark: arena, heap, and free list all sized.
  constexpr std::size_t kDepth = 4096;
  for (std::size_t i = 0; i < kDepth; ++i)
    sim.schedule_at(rng.uniform(0.0, 100.0), cb);
  for (std::size_t i = 0; i < kDepth / 2; ++i) sim.step();

  // Steady state: every schedule and fire below must reuse pooled slots.
  AllocationWindow window;
  for (std::size_t i = 0; i < 100'000; ++i) {
    sim.schedule_at(sim.now() + rng.uniform(0.0, 100.0), cb);
    sim.step();
  }
  EXPECT_EQ(window.count(), 0u)
      << "schedule/fire churn allocated in steady state";
  EXPECT_GT(fired, 0u);
}

TEST(SimulationAllocation, SteadyStateCancelIsAllocationFree) {
  Simulation sim;
  util::Rng rng(11);
  struct Cb {
    std::uint64_t* fired;
    double a, b;
    void operator()() const { ++*fired; }
  };
  std::uint64_t fired = 0;
  const Cb cb{&fired, 1.0, 2.0};

  constexpr std::size_t kDepth = 2048;
  std::vector<EventHandle> handles(kDepth);
  for (std::size_t i = 0; i < kDepth; ++i)
    handles[i] = sim.schedule_at(rng.uniform(0.0, 100.0), cb);

  AllocationWindow window;
  for (std::size_t round = 0; round < 50'000; ++round) {
    const std::size_t i = round % kDepth;
    handles[i].cancel();  // EventHandle ops never allocate
    handles[i] = sim.schedule_at(sim.now() + rng.uniform(0.0, 100.0), cb);
    if (round % 2 == 0) sim.step();
  }
  EXPECT_EQ(window.count(), 0u)
      << "schedule/cancel churn allocated in steady state";
}

TEST(SimulationAllocation, ReserveEventsMakesColdBurstAllocationFree) {
  Simulation sim;
  sim.reserve_events(10'000);
  struct Cb {
    std::uint64_t* fired;
    void operator()() const { ++*fired; }
  };
  std::uint64_t fired = 0;
  const Cb cb{&fired};

  AllocationWindow window;
  for (std::size_t i = 0; i < 10'000; ++i)
    sim.schedule_at(static_cast<double>(i), cb);
  sim.run_until();
  EXPECT_EQ(window.count(), 0u) << "burst within reservation allocated";
  EXPECT_EQ(fired, 10'000u);
}

}  // namespace
}  // namespace hcmd::sim
