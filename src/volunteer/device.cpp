#include "volunteer/device.hpp"

#include <algorithm>
#include <cmath>

#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::volunteer {

namespace {
void check_params(const DeviceParams& p) {
  if (p.speed_median <= 0.0 || p.speed_sigma < 0.0)
    throw ConfigError("DeviceParams: invalid speed distribution");
  if (p.throttle_default <= 0.0 || p.throttle_default > 1.0)
    throw ConfigError("DeviceParams: throttle outside (0, 1]");
  if (p.unthrottled_fraction < 0.0 || p.unthrottled_fraction > 1.0)
    throw ConfigError("DeviceParams: unthrottled_fraction outside [0, 1]");
  if (p.contention_mean <= 0.0 || p.contention_mean > 1.0 ||
      p.contention_spread < 0.0)
    throw ConfigError("DeviceParams: invalid contention");
  if (p.on_mean_hours <= 0.0 || p.off_mean_hours < 0.0)
    throw ConfigError("DeviceParams: invalid on/off means");
  if (p.lifetime_mean_days <= 0.0)
    throw ConfigError("DeviceParams: lifetime must be > 0");
  if (p.result_error_rate < 0.0 || p.result_error_rate > 1.0 ||
      p.abandon_rate < 0.0 || p.abandon_rate > 1.0)
    throw ConfigError("DeviceParams: rates outside [0, 1]");
}
}  // namespace

DeviceSpec make_device(std::uint32_t id, double join_time,
                       double years_since_launch, util::Rng& rng,
                       const DeviceParams& params) {
  check_params(params);
  DeviceSpec d;
  d.id = id;
  d.join_time = join_time;
  const double improvement =
      std::pow(1.0 + params.speed_improvement_per_year,
               std::max(0.0, years_since_launch));
  d.speed_factor = improvement *
                   rng.lognormal(std::log(params.speed_median),
                                 params.speed_sigma);
  d.throttle =
      rng.bernoulli(params.unthrottled_fraction) ? 1.0 : params.throttle_default;
  d.contention = std::clamp(
      params.contention_mean +
          rng.uniform(-params.contention_spread, params.contention_spread),
      0.05, 1.0);
  d.screensaver_overhead = params.screensaver_overhead;
  if (rng.bernoulli(params.always_on_fraction)) {
    d.on_mean_seconds = params.always_on_on_mean_hours * util::kSecondsPerHour;
    d.off_mean_seconds =
        params.always_on_off_mean_hours * util::kSecondsPerHour;
  } else {
    d.on_mean_seconds = params.on_mean_hours * util::kSecondsPerHour;
    d.off_mean_seconds = params.off_mean_hours * util::kSecondsPerHour;
  }
  d.lifetime_seconds =
      rng.exponential(params.lifetime_mean_days * util::kSecondsPerDay);
  d.error_rate = params.result_error_rate;
  d.abandon_rate = params.abandon_rate;
  d.accounting = params.accounting;
  return d;
}

double expected_effective_speed(const DeviceParams& params,
                                double years_since_launch) {
  check_params(params);
  // E[lognormal(ln m, s)] = m * exp(s^2/2).
  const double mean_speed =
      params.speed_median * std::exp(0.5 * params.speed_sigma *
                                     params.speed_sigma) *
      std::pow(1.0 + params.speed_improvement_per_year,
               std::max(0.0, years_since_launch));
  const double mean_throttle =
      params.unthrottled_fraction * 1.0 +
      (1.0 - params.unthrottled_fraction) * params.throttle_default;
  return mean_speed * mean_throttle * params.contention_mean *
         params.screensaver_overhead;
}

double expected_attached_fraction(const DeviceParams& params) {
  check_params(params);
  const double interactive =
      params.on_mean_hours / (params.on_mean_hours + params.off_mean_hours);
  const double always_on =
      params.always_on_on_mean_hours /
      (params.always_on_on_mean_hours + params.always_on_off_mean_hours);
  return params.always_on_fraction * always_on +
         (1.0 - params.always_on_fraction) * interactive;
}

}  // namespace hcmd::volunteer
