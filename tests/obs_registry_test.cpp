#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <stdexcept>
#include <vector>

#include "util/error.hpp"

namespace hcmd::obs {
namespace {

TEST(MetricIdTest, InvalidByDefault) {
  MetricId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(id.is_histogram());
}

TEST(Registry, InternIsIdempotent) {
  Registry r;
  const MetricId a = r.intern_counter("results");
  const MetricId b = r.intern_counter("results");
  EXPECT_EQ(a.value, b.value);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(a.is_histogram());
}

TEST(Registry, CounterAddAndTotal) {
  Registry r;
  const MetricId id = r.intern_counter("sent");
  r.add(id);
  r.add(id, 41);
  EXPECT_EQ(r.total(id), 42u);
  EXPECT_EQ(r.total("sent"), 42u);
  EXPECT_EQ(r.total("missing"), 0u);
}

TEST(Registry, InvalidIdIsIgnored) {
  Registry r;
  r.add(MetricId{});          // must not crash
  r.observe(MetricId{}, 1.0); // must not crash
  EXPECT_EQ(r.total(MetricId{}), 0u);
}

TEST(Registry, KindMismatchThrows) {
  // Re-interning a name with the other kind is a programming error and
  // trips the debug assertion (std::logic_error), not a config problem.
  Registry r;
  r.intern_counter("x");
  EXPECT_THROW(r.intern_histogram("x"), std::logic_error);
  r.intern_histogram("h");
  EXPECT_THROW(r.intern_counter("h"), std::logic_error);
}

TEST(Registry, FindResolvesInternedNames) {
  Registry r;
  const MetricId c = r.intern_counter("c");
  const MetricId h = r.intern_histogram("h");
  EXPECT_EQ(r.find("c").value, c.value);
  EXPECT_EQ(r.find("h").value, h.value);
  EXPECT_TRUE(r.find("h").is_histogram());
  EXPECT_FALSE(r.find("nope").valid());
}

TEST(Registry, NamesSorted) {
  Registry r;
  r.intern_counter("zed");
  r.intern_counter("alpha");
  r.intern_histogram("mid");
  EXPECT_EQ(r.counter_names(), (std::vector<std::string>{"alpha", "zed"}));
  EXPECT_EQ(r.histogram_names(), (std::vector<std::string>{"mid"}));
}

TEST(Registry, ConcurrentAddsAggregate) {
  Registry r;
  const MetricId id = r.intern_counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) r.add(id);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(r.total(id), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, CapacityThrowsPastLimit) {
  Registry r;
  for (std::size_t i = 0; i < Registry::kMaxCounters; ++i)
    r.intern_counter(std::string("c").append(std::to_string(i)));
  EXPECT_THROW(r.intern_counter("one-too-many"), ConfigError);
}

TEST(LogHistogramTest, RecordsBasicStats) {
  LogHistogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(4.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_NEAR(h.mean(), 7.0 / 3.0, 1e-12);
}

TEST(LogHistogramTest, QuantilesWithinRelativeBinWidth) {
  LogHistogram h;
  // 1000 samples of an exactly-known geometric ladder.
  for (int i = 0; i < 1000; ++i) h.record(std::pow(2.0, i % 20));
  // The p50 of {2^0..2^19} uniform is ~2^9.5; log bins are ~19 % wide, so a
  // generous factor-of-2 bracket proves the right octave was hit.
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, std::pow(2.0, 8.5));
  EXPECT_LT(p50, std::pow(2.0, 10.5));
  // Quantiles are clamped into the observed range.
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(LogHistogramTest, ExtremesClampToEdgeBins) {
  LogHistogram h;
  h.record(0.0);     // below range: lowest bin
  h.record(1e300);   // above range: highest bin
  h.record(-5.0);    // negative clamps like zero
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e300);
  std::uint64_t binned = 0;
  for (std::uint64_t c : h.counts()) binned += c;
  EXPECT_EQ(binned, 3u);
}

TEST(LogHistogramTest, EmptyIsAllZero) {
  LogHistogram h;
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(LogHistogramTest, MergeMatchesSingleRecorderBinExactly) {
  // Splitting a sample stream across two recorders and merging must be
  // indistinguishable from one recorder seeing everything: same bins, same
  // count, same min/max, same quantiles.
  LogHistogram a;
  LogHistogram b;
  LogHistogram whole;
  for (int i = 0; i < 997; ++i) {
    // Spread over ~9 decades so many distinct bins are hit.
    const double v = 1e-6 * std::pow(1.31, i % 75);
    whole.record(v);
    ((i % 3 == 0) ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.counts(), whole.counts());
  EXPECT_EQ(a.total(), whole.total());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  // The sums accumulate in a different order; allow rounding drift only.
  EXPECT_NEAR(a.sum(), whole.sum(), 1e-9 * whole.sum());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(a.quantile(p), whole.quantile(p)) << "p=" << p;
}

TEST(LogHistogramTest, MergeEmptyIsIdentity) {
  LogHistogram h;
  h.record(3.0);
  h.record(5.0);
  const LogHistogram empty;
  h.merge(empty);  // no-op: stats unchanged
  EXPECT_EQ(h.total(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0);

  LogHistogram into;
  into.merge(h);  // merge into empty adopts the source's stats
  EXPECT_EQ(into.counts(), h.counts());
  EXPECT_EQ(into.total(), 2u);
  EXPECT_DOUBLE_EQ(into.min(), 3.0);
  EXPECT_DOUBLE_EQ(into.max(), 5.0);

  LogHistogram both_empty;
  both_empty.merge(empty);
  EXPECT_EQ(both_empty.total(), 0u);
  EXPECT_DOUBLE_EQ(both_empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(both_empty.quantile(0.5), 0.0);
}

TEST(LogHistogramTest, SelfMergeDoubles) {
  LogHistogram h;
  h.record(1.0);
  h.record(8.0);
  h.merge(h);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 18.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  std::uint64_t binned = 0;
  for (std::uint64_t c : h.counts()) binned += c;
  EXPECT_EQ(binned, 4u);
}

TEST(LogHistogramTest, MergeCombinesClampedEdgeBins) {
  // Out-of-range samples clamp to the edge bins; merging two histograms
  // that clamped on opposite ends keeps both edges and the true min/max.
  LogHistogram lo;
  lo.record(0.0);     // below range
  lo.record(-2.0);    // negative clamps to zero before the stats
  LogHistogram hi;
  hi.record(1e300);   // above range
  lo.merge(hi);
  EXPECT_EQ(lo.total(), 3u);
  EXPECT_DOUBLE_EQ(lo.min(), 0.0);
  EXPECT_DOUBLE_EQ(lo.max(), 1e300);
  EXPECT_EQ(lo.counts().front(), 2u);
  EXPECT_EQ(lo.counts().back(), 1u);
}

TEST(Registry, HistogramObserve) {
  Registry r;
  const MetricId id = r.intern_histogram("latency");
  r.observe(id, 10.0);
  r.observe(id, 20.0);
  const LogHistogram* h = r.histogram(id);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 30.0);
  // A counter id yields no histogram.
  EXPECT_EQ(r.histogram(r.intern_counter("c")), nullptr);
}

}  // namespace
}  // namespace hcmd::obs
