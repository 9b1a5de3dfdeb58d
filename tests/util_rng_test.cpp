#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace hcmd::util {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(21);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, LognormalMedianAndMean) {
  Rng rng(23);
  const double mu = std::log(100.0), sigma = 0.5;
  std::vector<double> xs;
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    xs.push_back(rng.lognormal(mu, sigma));
    sum += xs.back();
  }
  // E[X] = exp(mu + sigma^2/2)
  EXPECT_NEAR(sum / n, 100.0 * std::exp(0.125), 1.5);
}

TEST(Rng, ExponentialMean) {
  Rng rng(27);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1e-3), 0.0);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(33);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(37);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(2.5));
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(39);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(500.0));
  EXPECT_NEAR(sum / n, 500.0, 2.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(41);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // fork() must depend only on the parent's state at fork time, and
  // distinct tags must give distinct streams.
  Rng parent(5);
  Rng childA = parent.fork("alpha");
  Rng childB = parent.fork("beta");
  EXPECT_NE(childA.next_u64(), childB.next_u64());
}

TEST(Rng, ForkSameTagSameStream) {
  Rng parent(5);
  Rng a = parent.fork("tag");
  Rng b = parent.fork("tag");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Hash64, StableAndDistinct) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntStaysInBounds) {
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(0, 999);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 999);
  }
}

TEST_P(RngSeedSweep, DoubleMeanNearHalf) {
  Rng rng(GetParam());
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 0xdeadbeefull,
                                           ~0ull));

}  // namespace
}  // namespace hcmd::util
