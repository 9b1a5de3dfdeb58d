// Runtime fault injector driven by a FaultPlan.
//
// A `FaultSchedule` answers the questions the server, transitioner and
// fleet ask mid-run: is the server down right now, should this returned
// result be corrupted or lost, how much slower is this device, how long
// should a backed-off client wait. It also centralises the observability:
// every injected fault bumps a local counter, a `fault.*` registry metric
// and a `TraceCat::kFault` trace event.
//
// Determinism contract:
//  - An inert schedule (empty plan) makes no RNG draws, schedules no events
//    and emits nothing — wiring it through a campaign leaves the run
//    bit-exact with a build that has no fault layer at all.
//  - The schedule owns no live stream. Every per-result draw comes from a
//    stream the caller passes in (the device's own fault stream), so the
//    draw sequence is a per-device property, independent of shard count,
//    and changing the plan never perturbs the device/agent/server streams.
//    Straggler and saboteur membership hash a salt fixed at construction.
#pragma once

#include <cstdint>

#include "faults/plan.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hcmd::faults {

/// Totals for the run report's `faults` section.
struct FaultCounters {
  std::uint64_t outage_denied_requests = 0;  ///< work requests refused
  std::uint64_t deferred_uploads = 0;        ///< returns buffered client-side
  std::uint64_t backoff_retries = 0;         ///< retry events while down
  std::uint64_t deadline_deferrals = 0;      ///< transitioner ticks postponed
  std::uint64_t corrupted_results = 0;
  std::uint64_t lost_results = 0;
  std::uint64_t churn_spikes = 0;
  std::uint64_t churn_killed = 0;
  std::uint64_t straggler_devices = 0;
  std::uint64_t saboteur_devices = 0;
  std::uint64_t saboteur_corrupted_results = 0;

  /// Field-wise accumulation: the sharded engine keeps one FaultSchedule
  /// instance per shard (plus one server-side) and sums their tallies for
  /// the run report.
  FaultCounters& operator+=(const FaultCounters& o) {
    outage_denied_requests += o.outage_denied_requests;
    deferred_uploads += o.deferred_uploads;
    backoff_retries += o.backoff_retries;
    deadline_deferrals += o.deadline_deferrals;
    corrupted_results += o.corrupted_results;
    lost_results += o.lost_results;
    churn_spikes += o.churn_spikes;
    churn_killed += o.churn_killed;
    straggler_devices += o.straggler_devices;
    saboteur_devices += o.saboteur_devices;
    saboteur_corrupted_results += o.saboteur_corrupted_results;
    return *this;
  }
};

/// What the fault layer does to one returned result.
enum class ResultFate : std::uint8_t {
  kClean,      ///< delivered as the device produced it
  kLost,       ///< dropped before it reaches the server
  kCorrupted,  ///< injected silent corruption
  kSabotaged,  ///< corrupted by a saboteur device
};

/// Tag of a fault-corrupted result: (global device id, per-device counter).
/// Unique fleet-wide and independent of shard count, so two corrupt copies
/// of one workunit never agree in quorum.
inline std::uint64_t corruption_tag(std::uint32_t device_id,
                                    std::uint64_t seq) {
  return (static_cast<std::uint64_t>(device_id) << 32) | seq;
}

class FaultSchedule {
 public:
  /// Inert schedule: `active()` is false and every query is a no-op.
  FaultSchedule() = default;

  /// Validates the plan; `rng` seeds the membership salts and must be a
  /// stream dedicated to faults (campaigns pass `root_rng.fork("faults")`).
  FaultSchedule(FaultPlan plan, const util::Rng& rng);

  bool active() const { return active_; }
  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counters_; }

  /// Optional instrumentation; either pointer may be null.
  void set_instruments(obs::Tracer* tracer, obs::Registry* registry);

  // --- outage windows -----------------------------------------------------
  /// True when `now` falls inside an outage window [begin, end).
  bool server_down(double now) const;
  /// End of the window containing `now`; `now` itself when the server is up.
  double outage_end_after(double now) const;
  /// Capped exponential backoff with jitter in [0.75, 1.25) drawn from the
  /// caller's stream. `attempt` counts prior failures (0 for the first
  /// retry).
  double backoff_delay(std::uint32_t attempt, util::Rng& rng) const;

  // --- per-result draws from a caller-owned stream ------------------------
  // The plan supplies the rates, the device supplies the stream.
  /// The fate of one returned result. Draws in a fixed order, stopping at
  /// the first hit: loss, injected corruption, then saboteur corruption
  /// (saboteur devices only). The plan is the only source of silent
  /// corruption, so every corrupt result is counted here.
  ResultFate draw_result_fate(std::uint32_t device_id, util::Rng& rng) const;
  bool draw_churn_death(double fraction, util::Rng& rng) const {
    return rng.bernoulli(fraction);
  }

  // --- straggler classification (event-stream independent) ----------------
  /// Deterministic per-device membership: hash(seed, device) < fraction.
  bool is_straggler(std::uint32_t device_id) const;
  /// 1.0 for normal devices, plan.straggler_slowdown for stragglers.
  double slowdown(std::uint32_t device_id) const {
    return is_straggler(device_id) ? plan_.straggler_slowdown : 1.0;
  }

  // --- saboteur classification (event-stream independent) -----------------
  /// Deterministic per-device membership, salted independently from the
  /// straggler hash so the two populations are uncorrelated.
  bool is_saboteur(std::uint32_t device_id) const;

  // --- fault notifications (counter + metric + trace) ---------------------
  void note_outage_denied(double now, std::uint32_t device_id);
  void note_deferred_upload(double now, std::uint32_t device_id);
  void note_backoff_retry(double now, std::uint32_t device_id,
                          std::uint32_t attempt);
  void note_deadline_deferred(double now, std::uint64_t result_id);
  void note_corrupt(double now, std::uint32_t device_id,
                    std::uint64_t result_id);
  void note_loss(double now, std::uint32_t device_id, std::uint64_t result_id);
  void note_churn_spike(double now, std::uint32_t killed,
                        std::uint32_t alive_before);
  void note_straggler(std::uint32_t device_id);
  void note_saboteur(std::uint32_t device_id);
  void note_saboteur_corrupt(double now, std::uint32_t device_id,
                             std::uint64_t result_id);
  void note_outage_boundary(double now, bool begin, std::uint32_t window);

 private:
  void trace(obs::TraceEv ev, double t, std::uint32_t id,
             std::uint32_t arg = 0, std::uint16_t extra = 0) {
    if (tracer_ != nullptr)
      tracer_->record(obs::TraceCat::kFault, ev, t, id, arg, extra);
  }
  void metric(obs::MetricId id, std::uint64_t n = 1) {
    if (registry_ != nullptr) registry_->add(id, n);
  }

  FaultPlan plan_;
  bool active_ = false;
  std::uint64_t straggler_salt_ = 0;
  std::uint64_t saboteur_salt_ = 0;
  FaultCounters counters_;

  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  struct MetricIds {
    obs::MetricId outage_denied{};
    obs::MetricId deferred_uploads{};
    obs::MetricId backoff_retries{};
    obs::MetricId deadline_deferrals{};
    obs::MetricId corrupted{};
    obs::MetricId lost{};
    obs::MetricId churn_killed{};
    obs::MetricId stragglers{};
    obs::MetricId saboteurs{};
    obs::MetricId saboteur_corrupted{};
  } ids_;
};

}  // namespace hcmd::faults
