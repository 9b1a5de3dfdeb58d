#include "sim/simulation.hpp"

#include <algorithm>

namespace hcmd::sim {

Simulation::Simulation() : ring_(kRingHours) {}

void Simulation::enqueue(const Timer& timer) {
  const std::uint64_t hour = hour_of(timer.time);
  if (hour <= open_hour_)
    heap_.push(timer);
  else if (hour - open_hour_ < kRingHours)
    bucket_push(hour, timer);
  else
    far_.push(timer);
}

void Simulation::bucket_push(std::uint64_t hour, const Timer& timer) {
  Bucket& b = ring_[hour & (kRingHours - 1)];
  if (b.head == nullptr || b.fill == Chunk::kTimers) {
    Chunk* chunk = take_chunk();
    chunk->next = b.head;
    b.head = chunk;
    b.fill = 0;
  }
  b.head->timers[b.fill++] = timer;
  ++bucketed_;
}

Simulation::Chunk* Simulation::take_chunk() {
  if (free_ != nullptr) {
    Chunk* chunk = free_;
    free_ = chunk->next;
    return chunk;
  }
  if (made_ == blocks_.size() * kBlockChunks) grow_chunk_pool(made_ + 1);
  const std::size_t i = made_++;
  return &blocks_[i / kBlockChunks][i % kBlockChunks];
}

void Simulation::grow_chunk_pool(std::size_t chunks) {
  const std::size_t blocks = (chunks + kBlockChunks - 1) / kBlockChunks;
  blocks_.reserve(blocks);
  // Default-initialised: a block's pages are first touched when a bucket
  // fills its chunks.
  while (blocks_.size() < blocks) blocks_.emplace_back(new Chunk[kBlockChunks]);
}

void Simulation::reserve_events(std::size_t n) {
  heap_.reserve(n);
  far_.reserve(n);
  // n timers spread over the ring: full chunks plus one partly filled chunk
  // per bucket in use.
  grow_chunk_pool((n + Chunk::kTimers - 1) / Chunk::kTimers +
                  std::min<std::size_t>(n, kRingHours));
}

bool Simulation::open_next_hour(std::uint64_t last) {
  while (bucketed_ + far_.size() > 0) {
    std::uint64_t next = open_hour_ + 1;
    // With the ring empty, jump straight to the first far timer's hour.
    if (bucketed_ == 0) next = std::max(next, hour_of(far_.top().time));
    if (next > last) return false;
    open_hour_ = next;

    Bucket& b = ring_[next & (kRingHours - 1)];
    std::size_t count = b.fill;
    for (Chunk* chunk = b.head; chunk != nullptr;) {
      for (std::size_t i = 0; i < count; ++i) heap_.push(chunk->timers[i]);
      bucketed_ -= count;
      count = Chunk::kTimers;
      Chunk* const later = chunk->next;
      chunk->next = free_;
      free_ = chunk;
      chunk = later;
    }
    b = Bucket{};

    // The ring now reaches one hour further.
    while (!far_.empty() &&
           hour_of(far_.top().time) - open_hour_ < kRingHours) {
      const Timer timer = far_.top();
      far_.pop();
      enqueue(timer);
    }
    if (!heap_.empty()) return true;
  }
  return false;
}

bool Simulation::fire_next(SimTime until, std::uint64_t last) {
  for (;;) {
    if (heap_.empty() && !open_next_hour(last)) return false;
    const Timer top = heap_.top();
    if (top.time > until) return false;
    heap_.pop();
    HCMD_ASSERT(top.time >= now_);
    const SimTime before = now_;
    now_ = top.time;
    if (dispatcher_->fire(top.key)) {
      ++processed_;
      return true;
    }
    // A cancelled timer: dropped without a trace.
    now_ = before;
    HCMD_ASSERT(cancelled_ > 0);
    --cancelled_;
  }
}

std::uint64_t Simulation::run_until(SimTime until) {
  const std::uint64_t last = hour_of(until);
  std::uint64_t ran = 0;
  while (fire_next(until, last)) ++ran;
  if (now_ < until && until != kTimeInfinity) now_ = until;
  return ran;
}

bool Simulation::step() {
  return fire_next(kTimeInfinity, hour_of(kTimeInfinity));
}

}  // namespace hcmd::sim
