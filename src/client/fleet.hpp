// Volunteer fleet: the per-device state machines of the campaign
// simulation, one record per device (the fault layer's state, sized only
// when a schedule is active, lives in arrays beside it).
//
// Behaviour mirrors the UD/BOINC agent the paper describes:
//  * the agent alternates attached (crunching) and detached periods —
//    volunteers "use only the idle time of the device";
//  * on each work request the grid routes the device to HCMD with the
//    schedule's current project share, otherwise to another WCG project;
//  * docking progress accrues at the device's effective speed; run time is
//    accounted per the agent's mode (UD: wall clock; BOINC: CPU);
//  * checkpoints exist only between starting positions: an interruption
//    loses the partial position and the wall time it consumed;
//  * some volunteers pause the agent for weeks ("long pause"): the server
//    times the result out and re-issues it, and the eventual late upload is
//    still received — redundant computing;
//  * the device dies at the end of its lifetime, silently dropping any
//    assigned work.
//
// Server interaction is asynchronous (the epoch-barrier engine model): a
// device never calls the project server directly. Work requests and result
// returns are posted into the shard's UplinkMailbox as the wire protocol's
// own request structs (proto::RequestWork, proto::ReportResult), stamped
// with the device's global id; the engine applies them through
// server::Replayer::apply at the epoch barrier, and the shard hands each
// answer to deliver() before it next advances. A device with a request in
// flight sits idle (pending_request_) until the answer arrives — the
// scheduler RPC latency the real agent also saw. Because a sequential run
// (one shard) goes through the identical mailbox-and-barrier machinery,
// sharded runs are bit-identical to it by construction.
//
// Layout: one VolunteerFleet keeps every device's state in one record per
// device (phase, work item, RNG, live timer keys, spec), indexed by
// shard-local device index, instead of one heap-allocated agent object per
// device: a fired timer touches one device, so it touches one record. The
// fleet is its simulation's Dispatcher. Each timer's tag is
// (device << 4 | action); the fleet keeps the live key of each cancellable
// action in the record, cancels by forgetting it, and refuses a fired key
// it no longer holds. Arming a cancellable action while its previous timer
// is still live is a fatal error: that older timer would vanish. Every RNG
// stream a device consumes (behaviour stream, fault stream) is forked from
// the device's *global* id before the fleet is partitioned, so shard count
// never changes a device's draws.
#pragma once

#include <cstdint>
#include <vector>

#include "client/uplink.hpp"
#include "faults/schedule.hpp"
#include "obs/registry.hpp"
#include "server/replayer.hpp"
#include "server/share_schedule.hpp"
#include "sim/simulation.hpp"
#include "util/exact_sum.hpp"
#include "util/rng.hpp"
#include "volunteer/device.hpp"

namespace hcmd::client {

struct AgentConfig {
  /// Reference CPU hours of a typical non-HCMD workunit (occupies the
  /// device when the share draw routes it to another project).
  double other_project_reference_hours = 4.0;
  /// Mean of the exponential long-pause duration.
  double long_pause_mean_weeks = 2.0;
  /// Retry interval when the HCMD server has no work to give.
  double work_request_retry_hours = 6.0;
};

/// The part of a work request's answer the fleet acts on. The engine queues
/// one per answer on the device's shard at a barrier, instead of the whole
/// server::Decision (104 bytes, 40 of them an Assignment's span block,
/// which the engine never sets).
struct WorkReply {
  std::uint64_t result_id = 0;
  double reference_seconds = 0.0;
  std::uint32_t device = 0;     ///< shard-local device index
  std::uint32_t positions = 0;  ///< isep_end - isep_begin of the workunit
  bool assigned = false;        ///< false: a NoWork denial
  bool project_complete = false;
};
static_assert(sizeof(WorkReply) == 32);

/// Registry counters the fleet emits (interned once at construction).
namespace metric {
inline constexpr const char* kWorkRequests = "fleet.work_requests";
inline constexpr const char* kWorkDenied = "fleet.work_denied_retries";
inline constexpr const char* kOtherProject = "fleet.other_project_workunits";
inline constexpr const char* kLongPauses = "fleet.long_pauses";
inline constexpr const char* kDeviceDeaths = "fleet.device_deaths";
}  // namespace metric

class VolunteerFleet final : public sim::Dispatcher {
 public:
  /// The fleet posts all server traffic to `uplink` and accrues its
  /// run-time meters into shard-local exact weekly bins (merged by the
  /// engine). Counters go to `registry` directly — its striped counters
  /// are thread-safe and sum exactly at any shard count.
  VolunteerFleet(sim::Simulation& simulation, UplinkMailbox& uplink,
                 const server::ShareSchedule& schedule,
                 obs::Registry& registry, AgentConfig config = {});

  VolunteerFleet(const VolunteerFleet&) = delete;
  VolunteerFleet& operator=(const VolunteerFleet&) = delete;

  /// Pre-sizes the device records (and the fault layer's per-device
  /// arrays, when active) for `n` devices (use the analytic expected fleet
  /// size; drawing it from an RNG would perturb the stream).
  void reserve_devices(std::size_t n);

  /// Registers a device and schedules its join event; must be called before
  /// the simulation runs past spec.join_time. The local index == order of
  /// addition; `spec.id` is the device's global index. `rng` is the
  /// device's behaviour stream and `fault_rng` its fault stream — both must
  /// be forked from the global id so shard assignment cannot change them.
  std::uint32_t add_device(const volunteer::DeviceSpec& spec, util::Rng rng,
                           util::Rng fault_rng = util::Rng(0));

  std::size_t size() const { return devices_.size(); }
  const volunteer::DeviceSpec& spec(std::uint32_t device) const {
    return devices_[device].spec;
  }

  /// Optional tracer for the device-lifecycle stream (join/death/pause on
  /// the device category, online/offline on the churn category). Call
  /// before the simulation runs; never read by any decision path.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches this shard's fault schedule. Must be called before the first
  /// add_device (per-device fault state is sized alongside the other
  /// arrays). An inert schedule leaves every path bit-identical to a fleet
  /// with no schedule at all.
  void set_fault_schedule(faults::FaultSchedule* faults);

  // --- engine barrier interface -------------------------------------------
  /// Epoch-stable completion snapshot: updated by the engine at barriers
  /// only, so every shard sees the same value throughout an epoch.
  void set_project_complete(bool complete) { server_complete_ = complete; }

  /// Answers a posted work request of local device `reply.device` with an
  /// assignment or a denial. Called with the shard quiescent at the
  /// barrier time, before the shard advances past it. An assignment to a
  /// device that died in the meantime is dropped silently (the deadline
  /// recovers it); a device that went offline stores it and resumes on
  /// re-attach. A denial with `project_complete` routes the device to
  /// another project's work, mirroring the synchronous fall-through of the
  /// old engine.
  void deliver(const WorkReply& reply);

  /// Devices whose work request has not been answered yet. Zero whenever
  /// the engine is between run_until calls.
  std::size_t awaiting_reply() const;

  /// Tallies of a correlated mass-churn spike over this shard's slice.
  struct ChurnResult {
    std::uint32_t killed = 0;
    std::uint32_t alive_before = 0;
  };
  /// Schedules a mass-churn spike at time `t`: every alive device dies
  /// independently with probability `death_fraction`, drawn from its own
  /// fault stream. Spikes are numbered in the order they are scheduled;
  /// the engine aggregates churn_result(spike) across shards and notes the
  /// spike once. A spike kills nothing unless the fault schedule is active.
  void schedule_churn_spike(double t, double death_fraction);
  ChurnResult churn_result(std::size_t spike) const {
    return spikes_[spike].result;
  }

  /// Shard-local exact run-time meters (weekly bins from t = 0). The
  /// engine merges the shards into the campaign's weekly series.
  const util::ExactBinnedSeries& hcmd_runtime_series() const {
    return hcmd_runtime_;
  }
  const util::ExactBinnedSeries& wcg_runtime_series() const {
    return wcg_runtime_;
  }

 private:
  enum class Phase : std::uint8_t {
    kUnborn, kOffline, kIdle, kComputing, kDead
  };
  /// What a timer does. The first kCancellable actions keep their live key
  /// in the device record; the others are never cancelled. A churn spike's
  /// tag carries the spike's index where a device's carries the device.
  enum class Action : std::uint8_t {
    kOnline, kOffline, kComplete, kPause, kRetry, kUploadRetry,
    kJoin, kDeath, kChurnSpike
  };
  static constexpr std::size_t kCancellable = 6;
  static constexpr std::uint32_t kActionBits = 4;

  struct WorkItem {
    bool active = false;          ///< a workunit is assigned
    bool is_hcmd = false;
    std::uint64_t result_id = 0;
    double required_ref = 0.0;    ///< reference CPU seconds to finish
    double progress_ref = 0.0;
    double attached_wall = 0.0;   ///< wall seconds spent attached to this WU
    double checkpoint_ref = 0.0;  ///< reference seconds per checkpoint slice
    double long_pause_at = -1.0;  ///< progress threshold (< 0: none pending)
  };

  /// All per-device state but the fault layer's.
  struct Device {
    Phase phase = Phase::kUnborn;
    bool long_pause_due = false;   ///< consumed by go_offline's draw
    bool pending_request = false;  ///< a work request awaits its answer
    /// Live key of each cancellable action's timer (kNoTimer: none).
    sim::Key timer[kCancellable] = {};
    util::Rng rng;
    WorkItem work;
    double segment_start = 0.0;
    double offline_at = 0.0;
    std::uint64_t msg_seq = 0;
    volunteer::DeviceSpec spec;
  };

  /// A finished result buffered in the agent's outbox while the server is
  /// down (one slot per device; a newer completion evicts — and loses — an
  /// undelivered older one).
  struct PendingUpload {
    server::proto::ReportResult report;
    std::uint32_t attempts = 0;
    bool active = false;
  };

  struct ChurnSpike {
    double death_fraction;
    ChurnResult result;
  };

  bool fire(sim::Key key) override;
  /// Arms device d's cancellable `action` at time t.
  void arm_at(std::uint32_t d, Action action, double t);
  void arm_in(std::uint32_t d, Action action, double delay) {
    arm_at(d, action, sim_.now() + delay);
  }
  void cancel(std::uint32_t d, Action action) {
    sim_.cancel(devices_[d].timer[static_cast<std::size_t>(action)]);
  }
  /// Schedules a timer that is never cancelled.
  void schedule_at(double t, std::uint32_t index, Action action) {
    sim_.schedule_at(t, index << kActionBits |
                            static_cast<std::uint32_t>(action));
  }

  void on_join(std::uint32_t d);
  void go_online(std::uint32_t d);
  void go_offline(std::uint32_t d);
  void on_death(std::uint32_t d);
  void trigger_long_pause(std::uint32_t d);
  void request_work(std::uint32_t d);
  void deliver_assignment(const WorkReply& reply);
  void deliver_denial(std::uint32_t d, bool project_complete);
  void start_other_project(std::uint32_t d);
  void begin_segment(std::uint32_t d);
  void settle_segment(std::uint32_t d, bool interrupted);
  void on_complete(std::uint32_t d);
  /// Posts a finished report to the uplink (fault loss/corruption draws
  /// happen here, from the device's own fault stream).
  void post_result(std::uint32_t d, server::proto::ReportResult report);
  void retry_upload(std::uint32_t d);
  ChurnResult mass_churn(double death_fraction);

  bool faults_on() const { return faults_ != nullptr && faults_->active(); }
  /// Effective speed including any straggler slowdown (keyed by the global
  /// device id: the classification must be shard-independent).
  double device_speed(std::uint32_t d) const {
    const double speed = devices_[d].spec.effective_speed();
    return faults_on() ? speed / faults_->slowdown(devices_[d].spec.id)
                       : speed;
  }

  sim::Simulation& sim_;
  UplinkMailbox& uplink_;
  const server::ShareSchedule& schedule_;
  obs::Registry& registry_;
  AgentConfig config_;
  obs::Tracer* tracer_ = nullptr;
  faults::FaultSchedule* faults_ = nullptr;
  bool server_complete_ = false;

  std::vector<Device> devices_;  ///< indexed by shard-local device index
  std::vector<ChurnSpike> spikes_;
  // --- fault-injection state; sized only when a schedule is active ---
  std::vector<util::Rng> fault_rngs_;
  std::vector<std::uint32_t> corruption_seq_;
  std::vector<PendingUpload> uploads_;
  std::vector<std::uint16_t> backoff_attempts_;  ///< work-request backoff

  // --- shard-local exact run-time meters (merged by the engine) ---
  util::ExactBinnedSeries hcmd_runtime_;
  util::ExactBinnedSeries wcg_runtime_;

  // --- counter ids, interned once at construction; count(id) on the hot
  // path is a single indexed atomic add, no string hash ---
  obs::MetricId id_work_requests_;
  obs::MetricId id_work_denied_;
  obs::MetricId id_other_project_;
  obs::MetricId id_long_pauses_;
  obs::MetricId id_device_deaths_;
};

}  // namespace hcmd::client
