// util::MpscQueue: FIFO-per-producer ordering, multi-producer stress (the
// TSan job runs this suite), and drain-order determinism under the
// (time, lane, key) merge the grid service applies to drained batches.
#include "util/mpsc_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/merge_order.hpp"

namespace {

using hcmd::util::MpscQueue;

TEST(MpscQueue, StartsEmpty) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.empty());
  int v = 0;
  EXPECT_FALSE(q.pop(v));
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  EXPECT_FALSE(q.empty());
  for (int i = 0; i < 100; ++i) {
    int v = -1;
    ASSERT_TRUE(q.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(MpscQueue, DrainMovesEverything) {
  MpscQueue<std::uint64_t> q;
  for (std::uint64_t i = 0; i < 1000; ++i) q.push(i);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(q.drain(out), 1000u);
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_TRUE(q.empty());
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(out[i], i);
}

TEST(MpscQueue, MoveOnlyPayload) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(42));
  std::unique_ptr<int> v;
  ASSERT_TRUE(q.pop(v));
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 42);
}

TEST(MpscQueue, DestructorReclaimsUndrainedEntries) {
  // Leak-checked by ASan builds: entries still queued when the queue dies
  // must be freed.
  MpscQueue<std::unique_ptr<int>> q;
  for (int i = 0; i < 64; ++i) q.push(std::make_unique<int>(i));
}

struct Tagged {
  std::uint32_t producer = 0;
  std::uint64_t seq = 0;
};

// Many producers hammer one consumer; per-producer FIFO must hold even
// though the global interleaving is arbitrary. This is the test the TSan CI
// job leans on to vet the acquire/release pairing.
TEST(MpscQueue, MultiProducerStressKeepsPerProducerFifo) {
  constexpr std::uint32_t kProducers = 8;
  constexpr std::uint64_t kPerProducer = 20000;

  MpscQueue<Tagged> q;
  std::atomic<std::uint32_t> started{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &started, p] {
      started.fetch_add(1);
      while (started.load() < kProducers) {
      }  // release the herd together
      for (std::uint64_t i = 0; i < kPerProducer; ++i) q.push(Tagged{p, i});
    });
  }

  // Consume concurrently with the producers (the service-thread pattern),
  // tolerating the Vyukov empty window by polling until the count is in.
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::uint64_t received = 0;
  Tagged t;
  while (received < kProducers * kPerProducer) {
    if (!q.pop(t)) continue;
    ASSERT_LT(t.producer, kProducers);
    EXPECT_EQ(t.seq, next_seq[t.producer])
        << "producer " << t.producer << " reordered";
    ++next_seq[t.producer];
    ++received;
  }
  for (auto& th : producers) th.join();
  EXPECT_TRUE(q.empty());
}

// The service contract: drained batches are re-sorted into the (time, lane,
// device, seq) merge order, so the total order is a function of the stamps
// alone — any producer interleaving yields the same replay sequence.
TEST(MpscQueue, DrainThenMergeSortIsDeterministic) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;

  auto run_once = [&] {
    MpscQueue<hcmd::server::MergeKey> q;
    std::vector<std::thread> producers;
    for (std::uint32_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          // Device gid == producer, per-device monotone seq, coarse time
          // stamps that collide across producers to exercise tie-breaks.
          q.push(hcmd::server::MergeKey{static_cast<double>(i / 16), p, i});
        }
      });
    }
    for (auto& th : producers) th.join();
    std::vector<hcmd::server::MergeKey> batch;
    q.drain(batch);
    std::sort(batch.begin(), batch.end(),
              [](const hcmd::server::MergeKey& a,
                 const hcmd::server::MergeKey& b) {
                return hcmd::server::merge_before(a, b);
              });
    return batch;
  };

  const std::vector<hcmd::server::MergeKey> a = run_once();
  const std::vector<hcmd::server::MergeKey> b = run_once();
  ASSERT_EQ(a.size(), kProducers * kPerProducer);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].gid, b[i].gid);
    EXPECT_EQ(a[i].seq, b[i].seq);
    if (i > 0) {
      EXPECT_FALSE(hcmd::server::merge_before(a[i], a[i - 1]));
    }
  }
}

}  // namespace
