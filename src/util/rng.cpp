#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hcmd::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  HCMD_ASSERT(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Lemire's nearly-divisionless bounded draw with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * span;
  auto l = static_cast<std::uint64_t>(m);
  if (l < span) {
    const std::uint64_t t = (0 - span) % span;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * span;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * f;
  has_cached_normal_ = true;
  return u * f;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(mu + sigma * normal());
}

double Rng::exponential(double mean) {
  HCMD_ASSERT(mean > 0.0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t Rng::poisson(double mean) {
  HCMD_ASSERT(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    double prod = next_double();
    std::uint64_t n = 0;
    while (prod > limit) {
      ++n;
      prod *= next_double();
    }
    return n;
  }
  // Normal approximation with continuity correction; adequate for the
  // population-scale arrival counts this library draws.
  const double x = normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

Rng Rng::fork(std::string_view tag) const {
  SplitMix64 sm(s_[0] ^ rotl(s_[2], 13) ^ hash64(tag));
  return Rng(sm.next());
}

std::uint64_t hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hcmd::util
