// Volunteer device model.
//
// Section 6 explains the observed 3.96x speed-down of a World Community
// Grid "virtual full-time processor" against the reference Opteron 2 GHz:
//  * the UD agent accounts *wall-clock* time, not CPU time;
//  * work runs at most at a 60 % CPU throttle by default;
//  * the research application runs at the lowest priority, so any owner
//    activity further starves it;
//  * the screensaver itself costs CPU;
//  * volunteer devices are on average slower than the reference processor.
//
// A DeviceSpec carries exactly those factors; `effective_speed()` is the
// rate at which reference-CPU seconds of progress accrue per attached
// wall-clock second, and its fleet mean (~0.25) is what produces the paper's
// 3.96 factor.
#pragma once

#include <cstdint>

#include "util/rng.hpp"

namespace hcmd::volunteer {

/// How the middleware accounts "run time" for a workunit.
enum class AccountingMode : std::uint8_t {
  /// Univa UD Grid MP agent: wall-clock time while the workunit is attached
  /// (Phase I of HCMD ran exclusively on this agent).
  kUdWallClock,
  /// BOINC agent: actual process CPU time (Phase II's plan).
  kBoincCpuTime,
};

/// Distribution parameters for generating a fleet.
struct DeviceParams {
  /// Lognormal device speed relative to the Opteron 2 GHz reference, for a
  /// device acquired at the WCG launch date.
  double speed_median = 0.62;
  double speed_sigma = 0.30;
  /// Desktop turnover: devices joining `t` years after launch are faster by
  /// (1 + improvement)^t. With the defaults, a device joining around the
  /// HCMD campaign (~2.1 years in) averages ~0.70x the reference — "the
  /// devices on World Community Grid are slower (on average) than an
  /// Opteron 2 GHz" — and the fleet's effective speed lands at ~0.25,
  /// reproducing the paper's 3.96x speed-down.
  double speed_improvement_per_year = 0.10;

  /// Default UD agent CPU throttle and the fraction of volunteers who
  /// downloaded the utility to unthrottle.
  double throttle_default = 0.60;
  double unthrottled_fraction = 0.10;

  /// Mean fraction of attached time actually granted to the lowest-priority
  /// research process (owner activity steals the rest).
  double contention_mean = 0.62;
  double contention_spread = 0.20;  ///< +- uniform half-width

  /// Multiplier for screensaver rendering overhead.
  double screensaver_overhead = 0.95;

  /// Attached/detached alternation (exponential means, hours). Attached
  /// means: machine on, agent allowed to crunch. Two behaviour classes:
  /// interactive desktops that cycle daily, and always-on machines (office
  /// boxes and enthusiast rigs left crunching 24/7). The always-on class is
  /// what lets the rare single-position workunits — whose checkpoint slice
  /// is the whole workunit — eventually complete after timeout re-issues.
  double on_mean_hours = 8.0;
  double off_mean_hours = 14.0;
  double always_on_fraction = 0.30;
  double always_on_on_mean_hours = 120.0;
  double always_on_off_mean_hours = 1.0;

  /// Device lifetime before it leaves the grid for good (exponential mean,
  /// days).
  double lifetime_mean_days = 240.0;

  /// Probability that a computed result is erroneous (fails validation).
  /// Results that pass the range check yet hold wrong values come only
  /// from the fault plan (faults::FaultPlan::corruption_rate and the
  /// saboteur subpopulation), which counts every one it injects.
  double result_error_rate = 0.015;
  /// Probability that an assigned workunit is silently abandoned (the
  /// volunteer kills the agent; the server only learns via the deadline).
  double abandon_rate = 0.030;

  AccountingMode accounting = AccountingMode::kUdWallClock;
};

/// One concrete device.
struct DeviceSpec {
  std::uint32_t id = 0;
  double join_time = 0.0;  ///< seconds since scenario epoch (may be < 0)
  double speed_factor = 1.0;
  double throttle = 0.6;
  double contention = 0.58;
  double screensaver_overhead = 0.95;
  double on_mean_seconds = 0.0;
  double off_mean_seconds = 0.0;
  double lifetime_seconds = 0.0;
  double error_rate = 0.0;
  double abandon_rate = 0.0;
  AccountingMode accounting = AccountingMode::kUdWallClock;

  /// Reference-CPU seconds of docking progress per attached wall second.
  double effective_speed() const {
    return speed_factor * throttle * contention * screensaver_overhead;
  }

  /// Fraction of wall time the device is attached (on / (on + off)).
  double attached_fraction() const {
    return on_mean_seconds / (on_mean_seconds + off_mean_seconds);
  }

  /// Run time the agent reports for `attached_seconds` of crunching that
  /// produced `cpu_progress_ref_seconds` of reference work.
  double reported_runtime(double attached_seconds,
                          double cpu_progress_ref_seconds) const {
    return accounting == AccountingMode::kUdWallClock
               ? attached_seconds
               : cpu_progress_ref_seconds / speed_factor;
  }
};

/// Draws a device joining at `join_time` (seconds since scenario epoch;
/// `years_since_launch` locates it on the hardware-improvement curve).
DeviceSpec make_device(std::uint32_t id, double join_time,
                       double years_since_launch, util::Rng& rng,
                       const DeviceParams& params);

/// Fleet-average effective speed implied by the parameters (analytic, used
/// for capacity planning and for sizing the scaled simulation).
double expected_effective_speed(const DeviceParams& params,
                                double years_since_launch);

/// Fleet-average attached (crunching) wall-time fraction, across the two
/// availability classes. Used to size the fleet for a target VFTP level.
double expected_attached_fraction(const DeviceParams& params);

}  // namespace hcmd::volunteer
