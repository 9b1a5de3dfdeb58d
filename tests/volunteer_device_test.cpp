#include "volunteer/device.hpp"

#include <gtest/gtest.h>

#include "util/duration.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace hcmd::volunteer {
namespace {

TEST(Device, MakeDeviceFillsSpec) {
  util::Rng rng(1);
  const DeviceParams params;
  const DeviceSpec d = make_device(7, 100.0, 2.0, rng, params);
  EXPECT_EQ(d.id, 7u);
  EXPECT_DOUBLE_EQ(d.join_time, 100.0);
  EXPECT_GT(d.speed_factor, 0.0);
  EXPECT_GT(d.lifetime_seconds, 0.0);
  EXPECT_GE(d.contention, 0.05);
  EXPECT_LE(d.contention, 1.0);
  EXPECT_TRUE(d.throttle == params.throttle_default || d.throttle == 1.0);
}

TEST(Device, EffectiveSpeedIsProductOfFactors) {
  DeviceSpec d;
  d.speed_factor = 0.8;
  d.throttle = 0.6;
  d.contention = 0.5;
  d.screensaver_overhead = 0.95;
  EXPECT_DOUBLE_EQ(d.effective_speed(), 0.8 * 0.6 * 0.5 * 0.95);
}

TEST(Device, UdAccountingReportsWallClock) {
  // Section 6: "the UD agent measures wall clock time rather than actual
  // process execution time".
  DeviceSpec d;
  d.accounting = AccountingMode::kUdWallClock;
  d.speed_factor = 0.5;
  EXPECT_DOUBLE_EQ(d.reported_runtime(8.0 * 3600.0, 1.0 * 3600.0),
                   8.0 * 3600.0);
}

TEST(Device, BoincAccountingReportsCpuTime) {
  DeviceSpec d;
  d.accounting = AccountingMode::kBoincCpuTime;
  d.speed_factor = 0.5;
  // 1 reference hour on a half-speed device = 2 CPU hours.
  EXPECT_DOUBLE_EQ(d.reported_runtime(8.0 * 3600.0, 1.0 * 3600.0),
                   2.0 * 3600.0);
}

TEST(Device, FleetEffectiveSpeedNearQuarter) {
  // The calibrated defaults must put the fleet's effective speed near 1/4 —
  // the reciprocal of the paper's 3.96x speed-down (before interruption
  // losses, which push the simulated value slightly lower).
  const DeviceParams params;
  const double e = expected_effective_speed(params, 2.1);
  EXPECT_GT(e, 0.22);
  EXPECT_LT(e, 0.33);
}

TEST(Device, SampledEffectiveSpeedMatchesAnalytic) {
  util::Rng rng(3);
  const DeviceParams params;
  util::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const DeviceSpec d =
        make_device(static_cast<std::uint32_t>(i), 0.0, 2.1, rng, params);
    stats.add(d.effective_speed());
  }
  EXPECT_NEAR(stats.mean(), expected_effective_speed(params, 2.1),
              0.02 * stats.mean());
}

TEST(Device, NewerDevicesFaster) {
  const DeviceParams params;
  EXPECT_GT(expected_effective_speed(params, 3.0),
            expected_effective_speed(params, 1.0));
}

TEST(Device, AttachedFractionMixesClasses) {
  DeviceParams params;
  params.always_on_fraction = 0.0;
  const double interactive = expected_attached_fraction(params);
  EXPECT_NEAR(interactive,
              params.on_mean_hours /
                  (params.on_mean_hours + params.off_mean_hours),
              1e-12);
  params.always_on_fraction = 1.0;
  EXPECT_GT(expected_attached_fraction(params), 0.95);
}

TEST(Device, SampledAttachedFractionMatchesAnalytic) {
  util::Rng rng(5);
  const DeviceParams params;
  util::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const DeviceSpec d =
        make_device(static_cast<std::uint32_t>(i), 0.0, 2.0, rng, params);
    stats.add(d.attached_fraction());
  }
  EXPECT_NEAR(stats.mean(), expected_attached_fraction(params), 0.01);
}

TEST(Device, UnthrottledFractionObserved) {
  util::Rng rng(7);
  const DeviceParams params;
  int unthrottled = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const DeviceSpec d =
        make_device(static_cast<std::uint32_t>(i), 0.0, 2.0, rng, params);
    if (d.throttle == 1.0) ++unthrottled;
  }
  EXPECT_NEAR(static_cast<double>(unthrottled) / n,
              params.unthrottled_fraction, 0.01);
}

TEST(Device, LifetimeMeanMatchesParameter) {
  util::Rng rng(9);
  const DeviceParams params;
  util::OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    const DeviceSpec d =
        make_device(static_cast<std::uint32_t>(i), 0.0, 2.0, rng, params);
    stats.add(d.lifetime_seconds);
  }
  EXPECT_NEAR(stats.mean(),
              params.lifetime_mean_days * util::kSecondsPerDay,
              0.03 * stats.mean());
}

TEST(Device, RejectsInvalidParams) {
  util::Rng rng(11);
  DeviceParams p;
  p.throttle_default = 1.5;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
  p = {};
  p.contention_mean = 0.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
  p = {};
  p.lifetime_mean_days = -1.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
  p = {};
  p.abandon_rate = 2.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
}

// A zero on/off mean would pass into util::Rng::exponential mid-campaign;
// validation rejects each one up front.
TEST(Device, RejectsZeroOffMean) {
  util::Rng rng(12);
  DeviceParams p;
  p.off_mean_hours = 0.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
}

TEST(Device, RejectsZeroAlwaysOnOnMean) {
  util::Rng rng(13);
  DeviceParams p;
  p.always_on_on_mean_hours = 0.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
}

TEST(Device, RejectsZeroAlwaysOnOffMean) {
  util::Rng rng(14);
  DeviceParams p;
  p.always_on_off_mean_hours = 0.0;
  EXPECT_THROW(make_device(0, 0.0, 1.0, rng, p), hcmd::ConfigError);
}

}  // namespace
}  // namespace hcmd::volunteer
