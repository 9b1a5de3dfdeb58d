// Deterministic random number generation.
//
// Every stochastic component in hcmd-grid draws from an explicitly seeded
// `Rng` so that whole campaign simulations replay bit-identically. Streams
// are split hierarchically (`Rng::fork`) so that adding a consumer in one
// module cannot perturb the draws seen by another.
#pragma once

#include <cstdint>
#include <string_view>

namespace hcmd::util {

/// SplitMix64 — used for seeding and stream derivation.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the workhorse generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements so it can be
/// plugged into <random> distributions, but the convenience members below
/// are preferred: they are portable across standard libraries, which keeps
/// regression baselines stable.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (polar rejection-free variant).
  double normal();
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal with the *underlying* normal parameters mu/sigma.
  double lognormal(double mu, double sigma);

  /// Exponential with the given mean (mean = 1/lambda). Requires mean > 0.
  double exponential(double mean);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64 to stay O(1)).
  std::uint64_t poisson(double mean);

  /// Derives an independent child stream. The tag participates in the
  /// derivation so distinct call sites get distinct streams even when forked
  /// from the same parent in the same order.
  Rng fork(std::string_view tag) const;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Stable 64-bit FNV-1a hash of a string, used for stream tags.
std::uint64_t hash64(std::string_view s);

}  // namespace hcmd::util
