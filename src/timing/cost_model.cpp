#include "timing/cost_model.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcmd::timing {

CostModel::CostModel(CostModelParams params) : params_(params) {
  if (params_.seconds_per_pair <= 0.0)
    throw ConfigError("CostModel: seconds_per_pair must be > 0");
  if (params_.noise_sigma < 0.0)
    throw ConfigError("CostModel: noise_sigma must be >= 0");
}

double CostModel::noise(std::uint32_t receptor_id,
                        std::uint32_t ligand_id) const {
  if (params_.noise_sigma == 0.0) return 1.0;
  if (receptor_id < noise_cache_n_ && ligand_id < noise_cache_n_)
    return noise_cache_[receptor_id * noise_cache_n_ + ligand_id];
  // A stable per-couple stream: the draw depends only on (seed, ids), never
  // on evaluation order — MAXDo property 1 (reproducible computing time).
  // The tag is formatted into a stack buffer (byte-identical to the string
  // concatenation it replaces); the hash makes the draw order-independent.
  char tag[64];
  char* p = tag;
  std::memcpy(p, "cost:", 5);
  p += 5;
  p = std::to_chars(p, tag + sizeof(tag) - 1, receptor_id).ptr;
  *p++ = ':';
  p = std::to_chars(p, tag + sizeof(tag) - 1, ligand_id).ptr;
  *p++ = ':';
  p = std::to_chars(p, tag + sizeof(tag), params_.seed).ptr;
  util::Rng rng(util::hash64(
      std::string_view(tag, static_cast<std::size_t>(p - tag))));
  const double sigma = params_.noise_sigma;
  // Mean-one lognormal: E[exp(N(-s^2/2, s))] = 1.
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

void CostModel::precompute_noise(std::uint32_t n) {
  if (n <= noise_cache_n_) return;
  std::vector<double> cache(static_cast<std::size_t>(n) * n);
  for (std::uint32_t r = 0; r < n; ++r)
    for (std::uint32_t l = 0; l < n; ++l) {
      cache[static_cast<std::size_t>(r) * n + l] =
          (r < noise_cache_n_ && l < noise_cache_n_)
              ? noise_cache_[static_cast<std::size_t>(r) * noise_cache_n_ + l]
              : noise(r, l);
    }
  noise_cache_ = std::move(cache);
  noise_cache_n_ = n;
}

double CostModel::seconds_per_rotation(const proteins::ReducedProtein& p1,
                                       const proteins::ReducedProtein& p2)
    const {
  const double pairs = static_cast<double>(p1.size()) *
                       static_cast<double>(p2.size());
  return params_.seconds_per_pair * pairs * noise(p1.id(), p2.id());
}

double CostModel::mct_entry(const proteins::ReducedProtein& p1,
                            const proteins::ReducedProtein& p2) const {
  return seconds_per_rotation(p1, p2) * proteins::kNumRotationCouples;
}

double CostModel::task_seconds(const proteins::ReducedProtein& p1,
                               const proteins::ReducedProtein& p2,
                               std::uint32_t nsep, std::uint32_t nrot) const {
  return seconds_per_rotation(p1, p2) * static_cast<double>(nsep) *
         static_cast<double>(nrot);
}

CostModel CostModel::calibrated(const proteins::Benchmark& benchmark,
                                double target_mean_mct_seconds,
                                double noise_sigma, std::uint64_t seed) {
  HCMD_ASSERT(target_mean_mct_seconds > 0.0);
  HCMD_ASSERT(!benchmark.proteins.empty());
  CostModelParams params;
  params.seconds_per_pair = 1.0;  // provisional; rescaled below
  params.noise_sigma = noise_sigma;
  params.seed = seed;
  CostModel unit(params);
  // One pass of hash+lognormal draws serves both the calibration sum and
  // every later bulk evaluation: the noise field depends only on
  // (seed, ids), not on seconds_per_pair, so the calibrated model inherits
  // the exact cached doubles.
  unit.precompute_noise(static_cast<std::uint32_t>(benchmark.proteins.size()));

  double sum = 0.0;
  const auto& ps = benchmark.proteins;
  for (const auto& p1 : ps)
    for (const auto& p2 : ps) sum += unit.mct_entry(p1, p2);
  const double mean = sum / (static_cast<double>(ps.size()) *
                             static_cast<double>(ps.size()));
  params.seconds_per_pair = target_mean_mct_seconds / mean;
  CostModel out(params);
  out.noise_cache_n_ = unit.noise_cache_n_;
  out.noise_cache_ = std::move(unit.noise_cache_);
  return out;
}

}  // namespace hcmd::timing
