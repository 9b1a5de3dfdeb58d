// Declarative fault plans for campaign chaos runs.
//
// A `FaultPlan` describes the adversity to inject into a campaign: server
// outage windows, per-result corruption/loss rates, straggler slowdowns and
// correlated mass-churn spikes. Plans are plain data — the runtime behaviour
// (RNG draws, counters, tracing) lives in `FaultSchedule`.
//
// Plans come from three places: compiled-in presets (`fault_preset`), plan
// files on disk (`load_fault_plan`, a line-based `key = value` format, see
// examples/faults/), or direct construction in tests.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcmd::faults {

/// Closed-open interval [begin, end) of sim-seconds during which the project
/// server refuses to issue work and cannot accept returned results.
struct OutageWindow {
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
};

/// A correlated departure event: at `time_seconds` every alive device dies
/// independently with probability `death_fraction`.
struct ChurnSpike {
  double time_seconds = 0.0;
  double death_fraction = 0.0;
};

struct FaultPlan {
  std::vector<OutageWindow> outages;

  /// Probability that a returned HCMD result is corrupted in flight (the
  /// reported energies are flipped; quorum validation must catch it).
  double corruption_rate = 0.0;

  /// Probability that a returned HCMD result is silently dropped before it
  /// reaches the server (deadline timeout -> reissue recovers it).
  double loss_rate = 0.0;

  /// Fraction of devices that are saboteurs: hosts that corrupt their own
  /// results at `saboteur_corruption_rate` per returned result. The same
  /// subpopulation models faulty hardware (bad RAM, an aggressive
  /// overclock) that passes the range check with wrong values.
  /// Membership is a deterministic per-device hash (same discipline as
  /// stragglers) so a given device is a saboteur in every replay. Unlike
  /// `corruption_rate` (in-flight, uniform over the fleet), saboteur
  /// corruption is concentrated on a fixed subpopulation — the threat
  /// model trust-based validation is designed to contain.
  double saboteur_fraction = 0.0;
  double saboteur_corruption_rate = 0.0;

  /// Fraction of devices that compute `straggler_slowdown` times slower
  /// than their spec. Membership is a deterministic per-device hash so it
  /// is stable across replays and independent of the event stream.
  double straggler_fraction = 0.0;
  double straggler_slowdown = 1.0;

  std::vector<ChurnSpike> churn_spikes;

  /// Client backoff while the server is down: capped exponential,
  /// delay(n) = min(initial * 2^n, cap) with deterministic jitter.
  double backoff_initial_seconds = 15.0 * 60.0;
  double backoff_cap_seconds = 6.0 * 3600.0;

  /// True when the plan injects anything at all. An all-defaults plan is
  /// inert and a campaign run with it stays bit-exact with a faults-free
  /// build of the same scenario.
  bool enabled() const;

  /// Throws ConfigError when a field is outside its documented domain.
  void validate() const;
};

/// Parses the `key = value` plan format (see examples/faults/*.faults).
/// Throws ParseError on malformed lines or unknown keys.
FaultPlan parse_fault_plan(std::string_view text);

/// Reads and parses a plan file. Throws ParseError (missing/unreadable file
/// included).
FaultPlan load_fault_plan(const std::string& path);

/// Names of the compiled-in presets, sorted.
const std::vector<std::string>& fault_preset_names();
bool is_fault_preset(std::string_view name);

/// Returns the named preset; throws ConfigError for unknown names.
FaultPlan fault_preset(std::string_view name);

/// The plan-file text a preset was compiled from (what examples/faults/
/// ships). Throws ConfigError for unknown names.
std::string_view fault_preset_text(std::string_view name);

}  // namespace hcmd::faults
