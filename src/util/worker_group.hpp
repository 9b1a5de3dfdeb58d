// Persistent worker threads for fixed fan-out rounds.
//
// core::ShardEngine advances its shards once per epoch barrier: thousands
// of rounds per campaign, each a few milliseconds long. So a WorkerGroup
// starts its threads once and parks them between rounds: the caller
// releases a round by bumping an atomic round counter and joins it on an
// atomic countdown, both through C++20 atomic wait/notify, with no
// per-round task, future, mutex or condition variable.
// core::replicate_campaign runs a single round whose lanes claim replica
// indices from a shared counter.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace hcmd::util {

class WorkerGroup {
 public:
  /// `lanes` >= 1. Lane 0 is the thread that calls run(), so `lanes - 1`
  /// threads are started here.
  explicit WorkerGroup(std::size_t lanes);
  /// Stops and joins the threads.
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  std::size_t lanes() const { return errors_.size(); }

  /// Runs job(lane) once for every lane in [0, lanes()), lane 0 on the
  /// calling thread, and returns once every lane has finished. If any lane
  /// threw, the exception of the lowest such lane is rethrown then.
  template <typename F>
  void run(const F& job) {
    run_erased(
        [](const void* fn, std::size_t lane) {
          (*static_cast<const F*>(fn))(lane);
        },
        &job);
  }

 private:
  using Job = void (*)(const void*, std::size_t);

  void run_erased(Job job, const void* fn);
  void run_lane(std::size_t lane) noexcept;
  void worker_loop(std::size_t lane);
  void stop();

  // Written by the caller before it releases a round; the release/acquire
  // pair on round_ orders them before every worker's read.
  Job job_ = nullptr;
  const void* fn_ = nullptr;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;  ///< one slot per lane
  std::atomic<std::uint32_t> round_{0};     ///< bumped to release a round
  std::atomic<std::uint32_t> busy_{0};      ///< threads still in the round
  std::vector<std::thread> threads_;        ///< lanes 1..lanes()-1
};

}  // namespace hcmd::util
