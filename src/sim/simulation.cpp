#include "sim/simulation.hpp"

namespace hcmd::sim {

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->slot_pending(slot_, generation_);
}

bool EventHandle::cancel() {
  return sim_ != nullptr && sim_->cancel_slot(slot_, generation_);
}

bool CompactEventHandle::pending(const Simulation& sim) const {
  return slot_ != kNull && sim.slot_pending(slot_, generation_);
}

bool CompactEventHandle::cancel(Simulation& sim) {
  return slot_ != kNull && sim.cancel_slot(slot_, generation_);
}

std::uint32_t Simulation::grow_arena() {
  HCMD_ASSERT_MSG(meta_.size() < kSlotMask, "event arena exhausted");
  const auto slot = static_cast<std::uint32_t>(meta_.size());
  meta_.emplace_back();
  if ((slot >> kChunkBits) == chunks_.size())
    chunks_.emplace_back(new Payload[kChunkSize]);
  return slot;
}

void Simulation::release_slot(std::uint32_t slot) {
  payload(slot).fn.reset();  // drop captures eagerly
  Meta& m = meta_[slot];
  ++m.generation;
  m.pos = free_head_;
  free_head_ = slot;
}

bool Simulation::slot_pending(std::uint32_t slot,
                              std::uint32_t generation) const {
  if (slot >= meta_.size()) return false;
  const Meta& m = meta_[slot];
  // A generation match implies the slot is queued or firing (released slots
  // bump the generation before any handle to the new occupant exists).
  return m.generation == generation && m.pos != kFiringMark;
}

bool Simulation::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  if (!slot_pending(slot, generation)) return false;
  heap_.remove(meta_[slot].pos);  // eager: no tombstones
  release_slot(slot);
  return true;
}

void Simulation::reserve_events(std::size_t n) {
  heap_.reserve(n);
  if (n > meta_.size()) {
    // Pre-build arena slots (and their payload chunks) and thread them onto
    // the free list in ascending order, so a burst that fills the
    // reservation allocates nothing and hands out slots in the same order
    // as organic growth.
    const std::size_t first = meta_.size();
    meta_.resize(n);
    const std::size_t want_chunks = (n + kChunkSize - 1) >> kChunkBits;
    chunks_.reserve(want_chunks);
    while (chunks_.size() < want_chunks)
      chunks_.emplace_back(new Payload[kChunkSize]);
    for (std::size_t slot = n; slot-- > first;) {
      meta_[slot].pos = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot);
    }
  }
}

std::uint64_t Simulation::run_until(SimTime until) {
  std::uint64_t ran = 0;
  while (!heap_.empty() && heap_.top().time <= until) {
    if (step()) ++ran;
  }
  if (now_ < until && until != kTimeInfinity) now_ = until;
  return ran;
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  const Entry top = heap_.top();
  const auto slot = static_cast<std::uint32_t>(top.key & kSlotMask);
#if defined(__GNUC__)
  // The fired slot's callable was written up to |queue| events ago, so its
  // cache line is usually cold. Request it before the pop's sift, whose
  // O(log n) memory traffic fully hides the fetch.
  __builtin_prefetch(&payload(slot));
#endif
  heap_.pop();
  HCMD_ASSERT(top.time >= now_);
  now_ = top.time;

  meta_[slot].pos = kFiringMark;
  // Payload chunks are pointer-stable, so the callable runs *in place* even
  // if it schedules events and grows the arena. meta_ may reallocate during
  // the callback, so no reference into it is held across it.
  payload(slot).fn();
  ++processed_;
  release_slot(slot);
  return true;
}

}  // namespace hcmd::sim
