// Test dispatcher for sim::Simulation. Each slot is a callback plus the live
// key of its timer, like one of the fleet's cancellable actions: arming a
// slot queues a timer tagged with the slot's index, cancelling forgets the
// key, and a fired key the slot no longer holds is refused.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace hcmd::sim::test {

class Slots final : public Dispatcher {
 public:
  explicit Slots(Simulation& sim) : sim_(sim) { sim.set_dispatcher(this); }

  /// A new, unarmed slot that runs `fn` when its timer fires.
  std::uint32_t add(std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    live_.push_back(kNoTimer);
    return static_cast<std::uint32_t>(fns_.size() - 1);
  }
  /// Arms `slot` at absolute time `t`; the slot must not hold a live timer.
  void arm_at(std::uint32_t slot, SimTime t) {
    HCMD_ASSERT(live_[slot] == kNoTimer);
    live_[slot] = sim_.schedule_at(t, slot);
  }
  void arm_in(std::uint32_t slot, SimTime delay) {
    HCMD_ASSERT(live_[slot] == kNoTimer);
    live_[slot] = sim_.schedule_in(delay, slot);
  }
  /// One-shot timers: a new slot, armed.
  std::uint32_t at(SimTime t, std::function<void()> fn) {
    const std::uint32_t slot = add(std::move(fn));
    arm_at(slot, t);
    return slot;
  }
  std::uint32_t in(SimTime delay, std::function<void()> fn) {
    const std::uint32_t slot = add(std::move(fn));
    arm_in(slot, delay);
    return slot;
  }

  bool cancel(std::uint32_t slot) { return sim_.cancel(live_[slot]); }
  bool pending(std::uint32_t slot) const { return live_[slot] != kNoTimer; }

  bool fire(Key key) override {
    const std::uint32_t slot = tag_of(key);
    if (live_[slot] != key) return false;
    live_[slot] = kNoTimer;
    fns_[slot]();
    return true;
  }

 private:
  Simulation& sim_;
  // A deque: a callback may add slots while it runs, and must not move.
  std::deque<std::function<void()>> fns_;
  std::vector<Key> live_;
};

}  // namespace hcmd::sim::test
