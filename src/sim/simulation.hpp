// Discrete-event simulation engine.
//
// A single-threaded, deterministic event loop: events fire in (time, seq)
// order, where seq is the scheduling order, so simultaneous events are
// processed FIFO and runs replay bit-identically for a fixed seed. This is
// the substrate under both grids (volunteer and dedicated): hosts, servers
// and availability processes are all expressed as scheduled callbacks.
//
// Throughput design (this is the kernel every campaign artefact runs on):
//  * callables live in a small-buffer move-only `util::SmallFn` — the
//    callables the fleet and the engine schedule capture at most a few
//    pointers and stay inline, so scheduling performs no heap allocation;
//  * event state lives in a pooled arena of generation-stamped slots with
//    free-list reuse. An `EventHandle` is {engine, slot, generation}: 16
//    bytes, trivially copyable, and stale handles (the slot was reused)
//    fail the generation check instead of keeping dead state alive. The
//    arena is split hot/cold: 8-byte slot metadata (heap position +
//    generation) in one dense array — the only thing the heap's sift
//    traffic touches — and the 64-byte callable payload in pointer-stable
//    chunks, touched once at schedule and once at fire. Chunk stability
//    also means callables fire *in place*: no move-out, even though a
//    callback may grow the arena mid-fire;
//  * the ready queue is an indexed 4-ary implicit heap over 16-byte
//    (time, key) entries, where key packs (seq, slot); child groups are
//    cache-line-aligned. Cancels remove their entry eagerly in O(log n) —
//    no tombstone buildup in deadline-heavy runs.
// In steady state (arena and heap at their high-water mark) schedule,
// cancel and fire are all allocation-free.
//
// Time is a double in *seconds* since the scenario epoch.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/dary_heap.hpp"
#include "util/error.hpp"
#include "util/small_fn.hpp"

namespace hcmd::sim {

using SimTime = double;

inline constexpr SimTime kTimeInfinity =
    std::numeric_limits<SimTime>::infinity();

class Simulation;

/// Handle used to cancel a scheduled event.
/// Cheap to copy; cancelling twice or cancelling a fired event is a no-op.
/// A handle must not be *used* after its Simulation is destroyed (copying
/// and destroying it remain fine).
class EventHandle {
 public:
  EventHandle() = default;
  /// True if the event has neither fired nor been cancelled.
  bool pending() const;
  /// Cancels if still pending. Returns true if it was pending.
  bool cancel();

 private:
  friend class Simulation;
  friend class CompactEventHandle;
  EventHandle(Simulation* sim, std::uint32_t slot, std::uint32_t generation)
      : sim_(sim), slot_(slot), generation_(generation) {}

  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// 8-byte (slot, generation) form of EventHandle for bulk owners that
/// already hold the Simulation — fleet-scale state keeps thousands of
/// timers, and the back pointer would double their footprint. Same
/// semantics: cancelling twice or cancelling a fired event is a no-op.
class CompactEventHandle {
 public:
  CompactEventHandle() = default;
  /// Implicit: lets `compact = sim.schedule_in(...)` assign directly.
  CompactEventHandle(const EventHandle& h)
      : slot_(h.sim_ != nullptr ? h.slot_ : kNull),
        generation_(h.generation_) {}

  bool pending(const Simulation& sim) const;
  bool cancel(Simulation& sim);

 private:
  static constexpr std::uint32_t kNull = ~std::uint32_t{0};
  std::uint32_t slot_ = kNull;
  std::uint32_t generation_ = 0;
};

/// The event loop.
class Simulation {
 public:
  using EventFn = util::SmallFn<void(), 48>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn()` to run at absolute time `t` (>= now). Returns a
  /// handle that can cancel it.
  template <typename F>
  EventHandle schedule_at(SimTime t, F&& fn) {
    HCMD_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    HCMD_ASSERT_MSG(next_seq_ < kMaxSeq, "event sequence space exhausted");
    const std::uint32_t slot =
        free_head_ != kNullIndex ? pop_free_slot() : grow_arena();
    // Constructed directly into the slot's payload (no SmallFn moves).
    payload(slot).fn = std::forward<F>(fn);
    const std::uint32_t generation = meta_[slot].generation;
    heap_.push(Entry{t, (next_seq_++ << kSlotBits) | slot});
    return EventHandle(this, slot, generation);
  }

  /// Schedules `fn()` to run `delay` seconds from now (delay >= 0).
  template <typename F>
  EventHandle schedule_in(SimTime delay, F&& fn) {
    HCMD_ASSERT(delay >= 0.0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Runs until the queue is empty or the clock passes `until`. Events at
  /// exactly `until` are executed; afterwards the clock is advanced to
  /// `until` (when finite) even if the queue drained earlier.
  /// Returns the number of events processed.
  std::uint64_t run_until(SimTime until = kTimeInfinity);

  /// Runs a single event. Returns false if the queue was empty.
  bool step();

  /// Grows the arena and heap to hold `n` concurrently pending events, so
  /// the first `n`-deep burst performs no allocation either.
  void reserve_events(std::size_t n);

  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t processed_events() const { return processed_; }

 private:
  friend class EventHandle;
  friend class CompactEventHandle;

  // Heap entries are 16 bytes: four children per cache line. `key` packs
  // (seq << kSlotBits) | slot, so comparing keys compares schedule order
  // (FIFO among simultaneous events) and the owning arena slot rides along
  // for free.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static constexpr std::uint32_t kNullIndex = ~std::uint32_t{0};
  /// `Meta::pos` value while the slot's callable is mid-fire. Distinct from
  /// any heap position or free-list link (links are slot ids < 2^24).
  static constexpr std::uint32_t kFiringMark = kNullIndex - 1;
  // Payload chunk size: 512 slots x 64 B callable = 32 KiB.
  static constexpr std::uint32_t kChunkBits = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Entry {
    SimTime time;
    std::uint64_t key;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      // Written with non-short-circuit & and | so the comparison compiles
      // branch-free: event keys are effectively random, so a branchy
      // tiebreak mispredicts half the time in the sift loops.
      return (a.time < b.time) | ((a.time == b.time) & (a.key < b.key));
    }
  };

  /// Hot per-slot metadata, packed to 8 bytes: everything the heap's sift
  /// traffic and handle checks touch stays in one dense, mostly-cached
  /// array. `pos` is overloaded by slot state: the current heap position
  /// while queued, the next free slot (or kNullIndex) while on the free
  /// list, kFiringMark while the callable runs. The overload is safe
  /// because a released slot bumps `generation`, so no live handle can
  /// mistake a free-list link for a heap position.
  struct Meta {
    std::uint32_t pos = kNullIndex;
    std::uint32_t generation = 0;
  };

  /// Cold per-slot payload, touched at schedule and fire only: exactly one
  /// cache line per slot (SmallFn<..., 48> is 64 bytes). Lives in
  /// pointer-stable chunks: callbacks may grow the arena while their own
  /// payload is mid-invocation.
  struct alignas(64) Payload {
    EventFn fn;
  };
  static_assert(sizeof(Payload) == 64);

  /// Keeps each queued slot's heap position current as the heap moves
  /// entries.
  struct TouchIndex {
    std::vector<Meta>* meta;
    void operator()(const Entry& e, std::size_t index) const {
      (*meta)[static_cast<std::size_t>(e.key & kSlotMask)].pos =
          static_cast<std::uint32_t>(index);
    }
  };

  Payload& payload(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  std::uint32_t pop_free_slot() {
    const std::uint32_t slot = free_head_;
    free_head_ = meta_[slot].pos;
    return slot;
  }

  std::uint32_t grow_arena();
  bool cancel_slot(std::uint32_t slot, std::uint32_t generation);
  bool slot_pending(std::uint32_t slot, std::uint32_t generation) const;
  void release_slot(std::uint32_t slot);

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<Meta> meta_;
  std::vector<std::unique_ptr<Payload[]>> chunks_;
  std::uint32_t free_head_ = kNullIndex;
  util::DaryHeap<Entry, EntryLess, 4, TouchIndex> heap_{EntryLess{},
                                                        TouchIndex{&meta_}};
};

}  // namespace hcmd::sim
