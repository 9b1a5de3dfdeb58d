// Stress and lifecycle tests for the typed-timer DES core: bit-identical
// replay under a large randomized op mix checked against a priority-queue
// oracle, FIFO ordering among simultaneous timers at scale, and the lazy
// cancel semantics of re-armed actions.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <tuple>
#include <vector>

#include "sim_slots.hpp"
#include "util/rng.hpp"

namespace hcmd::sim {
namespace {

using test::Slots;

constexpr double kHour = 3600.0;

/// Runs a randomized schedule/cancel/run workload of ~1e6 operations
/// and returns a trace fingerprint: a running hash of (timer id, fire time)
/// in dispatch order. Two runs with the same seed must agree bit-exactly.
/// Every fire is also checked against a std::priority_queue oracle over
/// (time, schedule order) that skips the ids cancelled so far.
struct StressResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t processed = 0;
  std::uint64_t oracle_mismatches = 0;
};

class StressTimers final : public Dispatcher {
 public:
  using OracleEntry = std::tuple<SimTime, std::uint64_t, std::uint32_t>;

  StressTimers(Simulation& sim, StressResult& out) : sim_(sim), out_(out) {
    sim.set_dispatcher(this);
  }

  /// One-shot timer at `t`; its id is its tag.
  void schedule(SimTime t) {
    const auto id = static_cast<std::uint32_t>(live_.size());
    live_.push_back(sim_.schedule_at(t, id));
    cancelled_.push_back(false);
    oracle_.emplace(t, order_++, id);
  }
  void cancel(std::uint32_t id) {
    if (!sim_.cancel(live_[id])) return;  // spent already
    cancelled_[id] = true;
    ++out_.cancelled;
  }
  std::size_t size() const { return live_.size(); }
  /// Live entries the oracle still holds.
  std::size_t oracle_pending() {
    skip_cancelled();
    std::size_t n = 0;
    for (auto copy = oracle_; !copy.empty(); copy.pop())
      if (!cancelled_[std::get<2>(copy.top())]) ++n;
    return n;
  }

  bool fire(Key key) override {
    const std::uint32_t id = tag_of(key);
    if (live_[id] != key) return false;
    live_[id] = kNoTimer;
    const SimTime t = sim_.now();
    skip_cancelled();
    if (oracle_.empty() || std::get<0>(oracle_.top()) != t ||
        std::get<2>(oracle_.top()) != id)
      ++out_.oracle_mismatches;
    if (!oracle_.empty()) oracle_.pop();
    // Order-sensitive hash: any difference in dispatch order or times
    // changes the fingerprint.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(t));
    __builtin_memcpy(&bits, &t, sizeof(bits));
    out_.fingerprint = out_.fingerprint * 0x9E3779B97F4A7C15ull + id;
    out_.fingerprint ^= bits + (out_.fingerprint << 6) + (out_.fingerprint >> 2);
    ++out_.fired;
    return true;
  }

 private:
  void skip_cancelled() {
    while (!oracle_.empty() && cancelled_[std::get<2>(oracle_.top())])
      oracle_.pop();
  }

  Simulation& sim_;
  StressResult& out_;
  std::vector<Key> live_;
  std::vector<bool> cancelled_;
  std::priority_queue<OracleEntry, std::vector<OracleEntry>,
                      std::greater<OracleEntry>>
      oracle_;
  std::uint64_t order_ = 0;
};

StressResult run_stress(std::uint64_t seed, std::size_t ops) {
  Simulation sim;
  util::Rng rng(seed);
  StressResult out;
  StressTimers timers(sim, out);

  for (std::size_t i = 0; i < ops; ++i) {
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.45) {
      // One-shot at a random future time: mostly within the open hour,
      // some a few buckets ahead, a few past the ring's horizon.
      const double reach = rng.uniform(0.0, 1.0);
      const double horizon = reach < 0.8    ? 1000.0
                             : reach < 0.97 ? 6.0 * kHour
                                            : 2000.0 * kHour;
      timers.schedule(sim.now() + rng.uniform(0.0, horizon));
    } else if (pick < 0.75 && timers.size() > 0) {
      // Cancel a random timer (may already be spent), in any bucket.
      const auto id = static_cast<std::uint32_t>(
          rng.uniform(0.0, 1.0) * static_cast<double>(timers.size()));
      timers.cancel(id % static_cast<std::uint32_t>(timers.size()));
    } else {
      // Advance the clock a little, firing whatever is due.
      sim.run_until(sim.now() + rng.uniform(0.0, 5.0));
    }
  }
  EXPECT_EQ(sim.pending_events(), timers.oracle_pending());
  sim.run_until();  // drain what remains
  EXPECT_EQ(timers.oracle_pending(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
  out.processed = sim.processed_events();
  return out;
}

TEST(SimulationStress, RandomizedMixReplaysBitIdentically) {
  // ~1e6 randomized schedule/cancel/run operations; the dispatch
  // trace (ids and times, in order) must match the oracle and be
  // bit-identical across replays.
  const StressResult a = run_stress(17, 1'000'000);
  const StressResult b = run_stress(17, 1'000'000);
  EXPECT_EQ(a.oracle_mismatches, 0u);
  EXPECT_GT(a.fired, 100'000u);
  // Cancel picks a uniformly random timer, most of which are already
  // spent; a few hundred live cancels is the expected yield.
  EXPECT_GT(a.cancelled, 500u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.processed, a.fired);

  // A different seed must (overwhelmingly) produce a different trace.
  const StressResult c = run_stress(18, 1'000'000);
  EXPECT_EQ(c.oracle_mismatches, 0u);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(SimulationStress, SimultaneousEventsKeepScheduleOrderAtScale) {
  // 10k timers at the same instant interleaved with cancels: survivors
  // must fire in exactly the order they were scheduled.
  Simulation sim;
  Slots slots(sim);
  std::vector<int> order;
  std::vector<std::uint32_t> timers;
  constexpr int kEvents = 10'000;
  order.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i)
    timers.push_back(slots.at(42.0, [&order, i] { order.push_back(i); }));
  for (int i = 0; i < kEvents; i += 3) slots.cancel(timers[i]);  // every third
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
  // One action re-armed 10,000 times, an hour ahead each time, so every
  // timer passes through a bucket: its key is live exactly until it fires,
  // and a fired timer cannot be cancelled.
  Simulation sim;
  Slots slots(sim);
  const auto action = slots.add([] {});
  for (int round = 0; round < 10'000; ++round) {
    slots.arm_in(action, kHour);
    EXPECT_TRUE(slots.pending(action));
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.step();
    EXPECT_FALSE(slots.pending(action));
    EXPECT_FALSE(slots.cancel(action));  // fired: cancel is a no-op
  }
  EXPECT_EQ(sim.processed_events(), 10'000u);
  EXPECT_EQ(sim.now(), 10'000 * kHour);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationArena, StaleHandleToReusedSlotIsInert) {
  // A cancelled, then re-armed action never fires its stale entry, whether
  // the new timer is due after the stale one or before it.
  for (const double rearm : {6.0, 1.0}) {
    Simulation sim;
    Slots slots(sim);
    std::vector<double> fired_at;
    const auto action = slots.add([&] { fired_at.push_back(sim.now()); });
    slots.arm_at(action, 5.0);
    EXPECT_TRUE(slots.cancel(action));
    slots.arm_at(action, rearm);
    EXPECT_EQ(sim.pending_events(), 1u);
    EXPECT_EQ(sim.run_until(), 1u);
    EXPECT_EQ(fired_at, (std::vector<double>{rearm}));
    EXPECT_EQ(sim.now(), rearm);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SimulationArena, CancelledSlotReuseKeepsGenerationsDistinct) {
  Simulation sim;
  Slots slots(sim);
  const auto a = slots.at(5.0, [] { FAIL() << "a was cancelled"; });
  EXPECT_TRUE(slots.cancel(a));
  EXPECT_FALSE(slots.cancel(a));  // double-cancel is a no-op

  bool b_fired = false;
  const auto b = slots.at(6.0, [&b_fired] { b_fired = true; });
  // The spent action must not touch the newcomer.
  EXPECT_FALSE(slots.pending(a));
  EXPECT_FALSE(slots.cancel(a));
  EXPECT_TRUE(slots.pending(b));
  sim.run_until();
  EXPECT_TRUE(b_fired);
}

TEST(SimulationArena, ReserveEventsPreservesBehaviour) {
  // Pre-reserving must not change dispatch order relative to organic
  // growth.
  auto run = [](bool reserve) {
    Simulation sim;
    Slots slots(sim);
    if (reserve) sim.reserve_events(512);
    std::vector<int> order;
    for (int i = 0; i < 300; ++i) {
      slots.at(static_cast<double>(i % 7) * 1000.0,
               [&order, i] { order.push_back(i); });
    }
    sim.run_until();
    return order;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace hcmd::sim
