// WorkerGroup's contract, as ShardEngine relies on it: every lane runs once
// per round (lane 0 on the caller), a round's writes are visible to the
// caller when run() returns, and an exception in any lane reaches the
// caller without wedging the group or its destructor.
#include "util/worker_group.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace hcmd::util {
namespace {

TEST(WorkerGroup, RunsEveryLaneOncePerRoundWithLaneZeroOnTheCaller) {
  WorkerGroup group(4);
  ASSERT_EQ(group.lanes(), 4u);
  std::vector<std::thread::id> who(4);
  std::vector<int> runs(4, 0);
  for (int round = 0; round < 500; ++round) {
    group.run([&](std::size_t lane) {
      ++runs[lane];
      who[lane] = std::this_thread::get_id();
    });
  }
  EXPECT_EQ(runs, (std::vector<int>{500, 500, 500, 500}));
  EXPECT_EQ(who[0], std::this_thread::get_id());
  for (std::size_t lane = 1; lane < who.size(); ++lane)
    EXPECT_NE(who[lane], who[0]) << "lane " << lane;
}

TEST(WorkerGroup, OneLaneRunsInline) {
  WorkerGroup group(1);
  std::thread::id who;
  group.run([&](std::size_t) { who = std::this_thread::get_id(); });
  EXPECT_EQ(who, std::this_thread::get_id());
}

TEST(WorkerGroup, LaneExceptionReachesTheCallerAndTheGroupKeepsWorking) {
  std::vector<int> runs(4, 0);
  {
    WorkerGroup group(4);
    try {
      group.run([&](std::size_t lane) {
        ++runs[lane];
        if (lane == 2) throw std::runtime_error("shard 2 failed");
      });
      FAIL() << "the lane's exception did not reach the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "shard 2 failed");
    }
    // Every other lane still finished its round before run() rethrew.
    EXPECT_EQ(runs, (std::vector<int>{1, 1, 1, 1}));
    group.run([&](std::size_t lane) { ++runs[lane]; });
    EXPECT_EQ(runs, (std::vector<int>{2, 2, 2, 2}));
  }  // the destructor must join the parked threads, not hang
}

TEST(WorkerGroup, LowestThrowingLaneWins) {
  WorkerGroup group(4);
  for (int round = 0; round < 20; ++round) {
    try {
      group.run([](std::size_t lane) {
        if (lane == 1 || lane == 3)
          throw std::runtime_error("lane " + std::to_string(lane));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "lane 1");
    }
  }
  // Caller-lane failures propagate the same way.
  EXPECT_THROW(group.run([](std::size_t lane) {
                 if (lane == 0) throw std::logic_error("caller");
               }),
               std::logic_error);
}

}  // namespace
}  // namespace hcmd::util
