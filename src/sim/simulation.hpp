// Discrete-event simulation engine over typed timers.
//
// A single-threaded, deterministic event loop. A queued timer is 16 bytes,
// (time, key): the key packs the scheduling order `seq` above a 28-bit tag
// that the simulation's owner chooses (the fleet packs a shard-local device
// and an action into it), and the owner's Dispatcher gives each fired key
// its meaning. Timers fire in (time, seq) order, so simultaneous timers fire
// FIFO and a run replays bit-identically for a fixed seed. Plain data, unlike
// a callable, can also be written out and read back.
//
// Cancel is lazy. An owner keeps the key of each timer it may cancel;
// cancel() clears that key and only counts the entry as dead. When a dead
// entry reaches the front, the dispatcher refuses it and the simulation drops
// it without moving now(), processed_events() or pending_events().
//
// Storage follows the clock. Timers due in the open hour wait in a 4-ary
// heap. Timers due in the next kRingHours - 1 hours wait unordered in hour
// buckets, built from pooled fixed-size chunks. Later timers wait in a far
// heap. When the open hour runs dry, the next bucket that holds timers is
// poured into the heap, and far timers the ring now reaches move into their
// buckets. Bucket hours are monotone in time, so this is exactly the global
// (time, seq) order, and the heap stays about one hour deep. A bucket is
// kBucketSeconds wide, the campaign engine's epoch; the width never changes
// which timer fires when. In steady state schedule, cancel and fire allocate
// nothing.
//
// Time is a double in *seconds* since the scenario epoch.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/dary_heap.hpp"
#include "util/error.hpp"

namespace hcmd::sim {

using SimTime = double;

inline constexpr SimTime kTimeInfinity =
    std::numeric_limits<SimTime>::infinity();

/// Width of a timer bucket: one hour, the campaign engine's epoch.
inline constexpr SimTime kBucketSeconds = 3600.0;

/// A queued timer's identity: (seq << kTagBits) | tag. Sequence numbers
/// start at 1, so no key is ever kNoTimer.
using Key = std::uint64_t;
inline constexpr std::uint32_t kTagBits = 28;
inline constexpr std::uint32_t kTagMask = (1u << kTagBits) - 1;
/// An owner's "no live timer" key.
inline constexpr Key kNoTimer = 0;

inline constexpr std::uint32_t tag_of(Key key) {
  return static_cast<std::uint32_t>(key) & kTagMask;
}

/// Gives a simulation's timers their meaning.
class Dispatcher {
 public:
  /// Runs timer `key` at now(). Returns false, having done nothing, when the
  /// owner has cancelled the timer.
  virtual bool fire(Key key) = 0;

 protected:
  ~Dispatcher() = default;
};

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Must be set before the first timer fires.
  void set_dispatcher(Dispatcher* dispatcher) { dispatcher_ = dispatcher; }

  SimTime now() const { return now_; }

  /// Queues a timer carrying `tag` (<= kTagMask) at absolute time `t`
  /// (>= now) and returns its key.
  Key schedule_at(SimTime t, std::uint32_t tag) {
    HCMD_ASSERT_MSG(t >= now_, "cannot schedule an event in the past");
    HCMD_ASSERT(tag <= kTagMask);
    HCMD_ASSERT_MSG(next_seq_ < kMaxSeq, "timer sequence space exhausted");
    const Key key = (next_seq_++ << kTagBits) | tag;
    enqueue({t, key});
    return key;
  }

  /// Queues a timer `delay` seconds from now (delay >= 0).
  Key schedule_in(SimTime delay, std::uint32_t tag) {
    HCMD_ASSERT(delay >= 0.0);
    return schedule_at(now_ + delay, tag);
  }

  /// Cancels the timer whose key `live` holds and clears `live`. Returns
  /// false if `live` held none. The owner must clear its live key when the
  /// timer fires, and its dispatcher must refuse a key it no longer holds.
  bool cancel(Key& live) {
    if (live == kNoTimer) return false;
    live = kNoTimer;
    ++cancelled_;
    return true;
  }

  /// Runs until no timer is due at or before `until`. Timers at exactly
  /// `until` fire; afterwards the clock is advanced to `until` (when finite)
  /// even if the queue drained earlier. Returns the number of timers fired.
  std::uint64_t run_until(SimTime until = kTimeInfinity);

  /// Fires the next live timer. Returns false if none is queued.
  bool step();

  /// Sizes the heaps and the bucket chunks for `n` concurrently queued
  /// timers, so the first `n`-deep burst allocates nothing.
  void reserve_events(std::size_t n);

  /// Queued timers that have not been cancelled.
  std::size_t pending_events() const {
    return heap_.size() + bucketed_ + far_.size() - cancelled_;
  }
  std::uint64_t processed_events() const { return processed_; }

 private:
  struct Timer {
    SimTime time;
    Key key;
  };
  struct TimerLess {
    bool operator()(const Timer& a, const Timer& b) const {
      // Non-short-circuit & and | compile branch-free: keys are effectively
      // random, so a branchy tiebreak mispredicts half the time in a sift.
      return (a.time < b.time) | ((a.time == b.time) & (a.key < b.key));
    }
  };
  using Heap = util::DaryHeap<Timer, TimerLess, 4>;

  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                           << (64 - kTagBits);
  /// Hours the bucket ring reaches past the open one (a power of two):
  /// about six weeks, past most of a device's timers but its death.
  static constexpr std::uint64_t kRingHours = 1024;
  /// The hour of +infinity, and of anything beyond 2^53 bucket widths.
  static constexpr double kLastHour = 9007199254740992.0;  // 2^53

  /// Half a KiB of timers; a bucket is a list of them, the newest first.
  /// Small, because every bucket in use keeps one partly filled.
  struct Chunk {
    static constexpr std::size_t kTimers = 31;
    Timer timers[kTimers];
    Chunk* next;
  };
  struct Bucket {
    Chunk* head = nullptr;
    std::uint32_t fill = 0;  ///< timers in `head`; later chunks are full
  };
  static constexpr std::size_t kBlockChunks = 128;  ///< 63 KiB blocks

  std::uint64_t hour_of(SimTime t) const {
    const double h = t * (1.0 / kBucketSeconds);
    return static_cast<std::uint64_t>(h < kLastHour ? h : kLastHour);
  }
  void enqueue(const Timer& timer);
  void bucket_push(std::uint64_t hour, const Timer& timer);
  bool open_next_hour(std::uint64_t last);
  bool fire_next(SimTime until, std::uint64_t last);
  Chunk* take_chunk();
  void grow_chunk_pool(std::size_t chunks);

  Dispatcher* dispatcher_ = nullptr;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t cancelled_ = 0;  ///< dead timers still queued
  std::uint64_t open_hour_ = 0;
  std::size_t bucketed_ = 0;
  Heap heap_;  ///< the open hour, and any earlier
  std::vector<Bucket> ring_;
  Heap far_;  ///< kRingHours or more past the open hour
  // Chunk pool: blocks never move; `made_` chunks have been handed out at
  // least once, and returned ones wait on `free_`.
  std::vector<std::unique_ptr<Chunk[]>> blocks_;
  std::size_t made_ = 0;
  Chunk* free_ = nullptr;
};

}  // namespace hcmd::sim
