// DeadlineBook's contract, as the epoch barrier and GridService rely on it:
// due ticks pop in ascending (time, result id) order, disarm drops a tick,
// a re-arm supersedes the earlier entry, armed() counts live ticks, and
// the flat armed set grows only when an id is armed.
#include "server/deadline_book.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hcmd::server {
namespace {

std::vector<std::uint64_t> ids(const std::vector<DeadlineBook::Due>& due) {
  std::vector<std::uint64_t> out;
  for (const DeadlineBook::Due& d : due) out.push_back(d.result_id);
  return out;
}

TEST(DeadlineBook, PopsDueTicksInTimeThenIdOrder) {
  DeadlineBook book;
  book.arm(7, 20.0);
  book.arm(3, 10.0);
  book.arm(9, 10.0);
  book.arm(1, 20.0);
  book.arm(5, 30.0);  // not yet due
  std::vector<DeadlineBook::Due> due;
  book.pop_due(20.0, due);  // time == t is due
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{3, 9, 1, 7}));
  EXPECT_EQ(due.front().time, 10.0);
  EXPECT_EQ(due.back().time, 20.0);
  EXPECT_EQ(book.armed(), 1u);

  due.clear();
  book.pop_due(29.0, due);
  EXPECT_TRUE(due.empty());
  book.pop_due(30.0, due);
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(book.armed(), 0u);
}

TEST(DeadlineBook, DisarmDropsPendingTick) {
  DeadlineBook book;
  book.arm(1, 10.0);
  book.arm(2, 10.0);
  book.disarm(1);
  book.disarm(42);  // never armed: no-op
  EXPECT_EQ(book.armed(), 1u);
  std::vector<DeadlineBook::Due> due;
  book.pop_due(100.0, due);
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{2}));
}

TEST(DeadlineBook, RearmAtLaterTimeFiresOnceAtTheLaterTime) {
  DeadlineBook book;
  book.arm(4, 10.0);
  book.arm(4, 25.0);  // outage deferral pushes the tick back
  EXPECT_EQ(book.armed(), 1u);
  std::vector<DeadlineBook::Due> due;
  book.pop_due(20.0, due);
  EXPECT_TRUE(due.empty());
  book.pop_due(25.0, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].result_id, 4u);
  EXPECT_EQ(due[0].time, 25.0);
  book.pop_due(1e9, due);
  EXPECT_EQ(due.size(), 1u);
}

TEST(DeadlineBook, ArmedCountsLiveTicks) {
  DeadlineBook book;
  EXPECT_EQ(book.armed(), 0u);
  for (std::uint64_t id = 0; id < 5; ++id) book.arm(id, 10.0 + id);
  EXPECT_EQ(book.armed(), 5u);
  book.disarm(2);
  EXPECT_EQ(book.armed(), 4u);
  std::vector<DeadlineBook::Due> due;
  book.pop_due(11.0, due);  // ids 0 and 1
  EXPECT_EQ(book.armed(), 2u);
}

TEST(DeadlineBook, RearmAfterDisarmFiresOnlyAtTheNewTime) {
  DeadlineBook book;
  book.arm(6, 10.0);
  book.disarm(6);
  book.arm(6, 30.0);
  EXPECT_EQ(book.armed(), 1u);
  std::vector<DeadlineBook::Due> due;
  book.pop_due(20.0, due);
  EXPECT_TRUE(due.empty());
  book.pop_due(30.0, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].time, 30.0);
}

TEST(DeadlineBook, DisarmFarAboveAnyArmedIdIsANoOp) {
  DeadlineBook book;
  book.arm(3, 10.0);
  const std::size_t span = book.id_span();
  book.disarm(std::uint64_t{1} << 40);
  EXPECT_EQ(book.id_span(), span);
  EXPECT_EQ(book.armed(), 1u);
  std::vector<DeadlineBook::Due> due;
  book.pop_due(10.0, due);
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{3}));
}

}  // namespace
}  // namespace hcmd::server
