#include "util/worker_group.hpp"

#include "util/error.hpp"

namespace hcmd::util {

namespace {

/// Polls a waiter makes before it sleeps on the futex. A round is a few
/// milliseconds of work at most, and a lane that finishes a little ahead of
/// the others (or a worker released a little after it parked) would
/// otherwise pay a sleep and a wake-up at every barrier.
constexpr int kSpinPolls = 16384;

/// Returns the value of `a` once it differs from `old`.
std::uint32_t wait_for_change(const std::atomic<std::uint32_t>& a,
                              std::uint32_t old) {
  for (int i = 0; i < kSpinPolls; ++i) {
    const std::uint32_t v = a.load(std::memory_order_acquire);
    if (v != old) return v;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

}  // namespace

WorkerGroup::WorkerGroup(std::size_t lanes) : errors_(lanes) {
  HCMD_ASSERT_MSG(lanes >= 1, "a worker group needs at least one lane");
  threads_.reserve(lanes - 1);
  try {
    for (std::size_t lane = 1; lane < lanes; ++lane)
      threads_.emplace_back([this, lane] { worker_loop(lane); });
  } catch (...) {
    stop();  // join the threads already started before the vector dies
    throw;
  }
}

WorkerGroup::~WorkerGroup() { stop(); }

void WorkerGroup::stop() {
  stopping_ = true;
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerGroup::run_lane(std::size_t lane) noexcept {
  try {
    job_(fn_, lane);
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void WorkerGroup::worker_loop(std::size_t lane) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = wait_for_change(round_, seen);
    if (stopping_) return;
    run_lane(lane);
    if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) busy_.notify_one();
  }
}

void WorkerGroup::run_erased(Job job, const void* fn) {
  job_ = job;
  fn_ = fn;
  busy_.store(static_cast<std::uint32_t>(threads_.size()),
              std::memory_order_relaxed);
  round_.fetch_add(1, std::memory_order_release);
  round_.notify_all();
  run_lane(0);
  for (std::uint32_t b = busy_.load(std::memory_order_acquire); b != 0;)
    b = wait_for_change(busy_, b);
  for (std::exception_ptr& e : errors_) {
    if (!e) continue;
    const std::exception_ptr first = e;
    for (std::exception_ptr& rest : errors_) rest = nullptr;
    std::rethrow_exception(first);
  }
}

}  // namespace hcmd::util
