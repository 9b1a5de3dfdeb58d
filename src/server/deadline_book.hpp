// Result-deadline bookkeeping for the epoch-barrier campaign engine.
//
// The sequential engine armed one simulation timer per issued result (see
// the old TransitionerTimers); with the fleet partitioned into shards there
// is no single event heap for server-side timers to live in, and a deadline
// is a *server* event in any case — it must fire in the deterministic
// barrier merge, not inside whichever shard happens to host the device.
// DeadlineBook is therefore simulation-free: a min-heap of (deadline,
// result id) plus a flat armed set, drained at each epoch barrier with
// `pop_due`, which yields due deadlines in the same (time, id) order at any
// shard count.
//
// Result ids are issued densely from 0, so the armed set is two bits per
// id, indexed by the id: no hashing and no node allocation per message.
// Disarm is lazy (the heap entry stays; the bits are authoritative). Each
// id has at most one heap entry: re-arming a result whose entry is still
// queued — the transitioner's outage deferral — replaces that entry, so
// the re-arm supersedes the earlier time. The replace is a linear pass over
// the heap; the barrier replay never takes it, because it only re-arms a
// tick that `pop_due` has already taken off the heap.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hcmd::server {

class DeadlineBook {
 public:
  struct Due {
    double time = 0.0;
    std::uint64_t result_id = 0;
  };

  /// Arms (or re-arms, superseding) the deadline tick for a result.
  void arm(std::uint64_t result_id, double deadline) {
    if (result_id >= armed_.size()) {
      armed_.resize(result_id + 1);
      queued_.resize(result_id + 1);
    }
    if (!armed_[result_id]) {
      armed_[result_id] = true;
      ++armed_count_;
    }
    if (queued_[result_id]) {
      std::erase_if(heap_, [&](const Due& d) {
        return d.result_id == result_id;
      });
      std::make_heap(heap_.begin(), heap_.end(), Later{});
    }
    queued_[result_id] = true;
    heap_.push_back({deadline, result_id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Retires a pending tick (no-op if it already fired or never existed).
  void disarm(std::uint64_t result_id) {
    if (result_id >= armed_.size() || !armed_[result_id]) return;
    armed_[result_id] = false;
    --armed_count_;
  }

  std::size_t armed() const { return armed_count_; }
  /// Result ids the flat set spans: one past the highest id ever armed.
  std::size_t id_span() const { return armed_.size(); }

  /// Appends every armed deadline with time <= t to `out`, in ascending
  /// (time, result id) order, and disarms them. Heap entries of lazily
  /// disarmed ticks are dropped silently.
  void pop_due(double t, std::vector<Due>& out) {
    while (!heap_.empty() && heap_.front().time <= t) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const Due due = heap_.back();
      heap_.pop_back();
      queued_[due.result_id] = false;
      if (!armed_[due.result_id]) continue;
      armed_[due.result_id] = false;
      --armed_count_;
      out.push_back(due);
    }
  }

 private:
  /// Min-heap order with the id as tie-break, so equal-time deadlines pop
  /// in a deterministic, shard-count-independent order.
  struct Later {
    bool operator()(const Due& a, const Due& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.result_id > b.result_id;
    }
  };

  std::vector<Due> heap_;
  std::vector<bool> armed_;   ///< by result id: the tick is live
  std::vector<bool> queued_;  ///< by result id: the id has a heap entry
  std::size_t armed_count_ = 0;
};

}  // namespace hcmd::server
