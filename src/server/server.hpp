// BOINC-style project server for the HCMD workload.
//
// Holds the workunit catalogue and drives the result lifecycle the way the
// World Community Grid back end does:
//
//   feeder      — hands out instances in catalogue order (the WCG team
//                 launched "the workunit of one protein after an other",
//                 cheapest receptor first);
//   redundancy  — a workunit may be issued to several devices: a quorum of
//                 2 during the early campaign (results compared pairwise),
//                 then quorum 1 with a value-range check plus a spot-check
//                 fraction that still gets double-issued;
//   transitioner— deadline misses and invalid results trigger re-issues;
//   assimilator — the first validated result completes the workunit; any
//                 further copies (including late arrivals from reconnecting
//                 volunteers) are still *received* and counted, which is
//                 what makes only ~73 % of received results useful.
//
// The server is deliberately passive (no event loop): the campaign driver
// in src/core owns simulated time and calls into it. All times are seconds
// since campaign start.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "packaging/workunit.hpp"
#include "server/validation_policy.hpp"
#include "util/chunked_vector.hpp"
#include "util/rng.hpp"

namespace hcmd::server {

struct ServerConfig {
  /// Knobs of the fixed (paper) regime; see validation_policy.hpp.
  ValidationConfig validation;
  /// Which validation policy runs (fixed quorum by default — the paper's
  /// reproduction; the adaptive trust policy reads `adaptive_trust`).
  PolicyKind policy = PolicyKind::kFixedQuorum;
  AdaptiveTrustConfig adaptive_trust;
  /// Result deadline after assignment (seconds). WCG-era deadlines were on
  /// the order of a week and a half.
  double deadline = 10.0 * 86400.0;
  /// End-game over-issue: once no fresh work remains, an idle device gets
  /// an extra copy of an outstanding workunit (up to this many live copies)
  /// instead of nothing — the mechanism grid operators use to stop a
  /// handful of stragglers from stretching the project tail by weeks.
  /// 0 disables end-game duplication.
  std::uint32_t endgame_max_outstanding = 3;
  std::uint64_t seed = 0x5e44e3;
};

/// State of one catalogue workunit.
enum class WorkunitState : std::uint8_t {
  kUnsent,      ///< never issued
  kInProgress,  ///< issued, waiting for enough valid results
  kDone,        ///< assimilated
};

/// State of one issued result instance.
enum class ResultState : std::uint8_t {
  kInProgress,  ///< on a device
  kValid,       ///< received and accepted
  kInvalid,     ///< received and rejected by validation
  kRedundant,   ///< received fine, but the workunit was already complete
  kTimedOut,    ///< deadline passed with nothing received
  kPendingValidation,  ///< clean-looking, waiting for its quorum partner
};

/// What a device reports when it returns a result.
struct ResultReport {
  bool computation_error = false;  ///< client-side failure / bad output
  /// The result file passes the range check but holds wrong values (bad
  /// RAM, overclocked FPU). Only a quorum comparison can catch it.
  bool silent_error = false;
  double reported_runtime = 0.0;   ///< agent-accounted run time (seconds)
  double reference_seconds = 0.0;  ///< true reference CPU the WU required
  /// Which wrong payload a silently-corrupt result carries. Equal tags
  /// agree in quorum. Every corrupt return comes from the fault plan, which
  /// stamps it with a unique nonzero `faults::corruption_tag`, so two
  /// independently corrupted quorum partners never validate each other.
  std::uint64_t corruption_tag = 0;
};

/// Device ids from here up are refused: a ResultInstance keeps the id in
/// 24 bits (ProjectServer::request_work throws ConfigError), and the wire
/// service answers them kBadFrame before they reach the server, so hostile
/// input cannot grow its per-device history arrays without bound either.
inline constexpr std::uint32_t kMaxDevices = 1u << 24;

/// One issued result copy: 16 bytes, because the server keeps every copy
/// it ever issued (4.83 M at scale 1.0). The result id is the record's
/// index, the deadline is `sent_time + ServerConfig::deadline` (so the
/// record is also the result's deadline tick), and a result's corruption
/// tag is kept (in ProjectServer) only while it waits for its quorum
/// partner. The state and the silent-error bit share the device id's top
/// byte.
struct ResultInstance {
  double sent_time = 0.0;
  std::uint32_t workunit_index = 0;  ///< index into catalogue
  std::uint32_t device_id : 24 = 0;  ///< < kMaxDevices
  ResultState state : 3 = ResultState::kInProgress;
  bool silent_error : 1 = false;
};
static_assert(sizeof(ResultInstance) == 16);

/// Aggregate lifecycle counters (the Fig. 6(b) quantities).
///
/// "Useful" results follow the paper's accounting: one canonical result per
/// completed workunit. Everything else that comes back — the extra quorum
/// member, spot-check copies, late arrivals from reconnecting volunteers,
/// invalid files — is received but not useful, which is what makes the
/// received/useful ratio the paper's redundancy factor (1.37, i.e. only
/// ~73 % of received results are useful).
struct ServerCounters {
  std::uint64_t results_sent = 0;
  std::uint64_t results_received = 0;    ///< everything that came back
  std::uint64_t results_valid = 0;       ///< canonical: 1 per completed WU
  std::uint64_t results_quorum_extra = 0;///< correct, consumed by quorum
  std::uint64_t results_invalid = 0;
  std::uint64_t results_redundant = 0;   ///< fine but workunit already done
  std::uint64_t results_timed_out = 0;
  /// Clean-looking quorum results still awaiting their partner.
  std::uint64_t results_pending = 0;
  /// Quorum comparisons that disagreed (both members discarded).
  std::uint64_t quorum_mismatches = 0;
  /// Spot-check copies that disagreed with an already-assimilated result.
  std::uint64_t late_mismatches = 0;
  /// Assimilated canonical results that are silently corrupt — the science
  /// quality ground truth (unknowable to a real server; the simulator's
  /// oracle view).
  std::uint64_t corrupt_assimilated = 0;
  std::uint64_t workunits_completed = 0;
  double useful_reference_seconds = 0.0;
  double reported_runtime_seconds = 0.0;  ///< over all received results

  double useful_fraction() const {
    return results_received == 0
               ? 0.0
               : static_cast<double>(results_valid) /
                     static_cast<double>(results_received);
  }
  double redundancy_factor() const {
    return results_valid == 0
               ? 0.0
               : static_cast<double>(results_received) /
                     static_cast<double>(results_valid);
  }
};

/// Assignment handed to a device.
struct Assignment {
  std::uint64_t result_id = 0;
  packaging::Workunit workunit;
  double deadline = 0.0;
};

/// One transitioner tick: a result's deadline, or the outage end an
/// outage moved it to.
struct DeadlineTick {
  double time = 0.0;
  std::uint64_t result_id = 0;
};

class ProjectServer {
 public:
  /// The catalogue must already be in launch order (cheapest receptor
  /// first — see core/campaign.cpp which performs the ordering).
  ProjectServer(std::vector<packaging::Workunit> catalog,
                ServerConfig config);

  /// Scheduler RPC: next instance for `device` at time `now`, or nullopt if
  /// no work remains to issue. Throws ConfigError, changing nothing, for a
  /// device id >= kMaxDevices.
  std::optional<Assignment> request_work(std::uint32_t device_id, double now);

  /// A device returns a result. Handles validation, quorum bookkeeping and
  /// assimilation; late results (after the deadline fired) are accepted and
  /// counted as redundant/valid exactly like WCG did. Returns the state the
  /// instance ended in (kValid / kInvalid / kRedundant).
  ResultState report_result(std::uint64_t result_id, double now,
                            const ResultReport& report);

  /// True when `result_id` has already been received (any terminal or
  /// pending-validation state; timed-out instances may still legitimately
  /// arrive late and are not "reported"). Reporting it again is a bug that
  /// report_result traps; Replayer::apply answers such a replay itself.
  bool result_reported(std::uint64_t result_id) const;

  /// Transitioner tick for a deadline: if the instance is still outstanding
  /// it is marked timed out and the workunit is queued for re-issue.
  /// Returns true if a timeout actually occurred.
  bool handle_deadline(std::uint64_t result_id, double now);

  /// The transitioner's schedule. Moves a cursor over the results whose
  /// deadline is at or before `t` and appends a tick for each one still
  /// in progress, skipping those reported since their issue. Each result
  /// is passed once. Sent times never decrease with the result id (see
  /// issue), so id order is deadline order and the ticks come out in
  /// (time, id) order.
  void pop_due(double t, std::vector<DeadlineTick>& out);
  /// Results issued and neither reported nor timed out: between replay
  /// batches, the live deadline ticks.
  std::uint64_t results_in_progress() const { return in_progress_; }

  /// Attaches telemetry (both optional, may be nullptr). The tracer gets
  /// the workunit lifecycle stream; the registry gets the server's latency
  /// and queue-depth histograms (ids interned here, once). Neither sink is
  /// consulted by any decision path — instrumented and bare runs replay
  /// bit-identically.
  void set_instruments(obs::Tracer* tracer, obs::Registry* registry);

  /// True when every catalogue workunit is assimilated.
  bool complete() const {
    return counters_.workunits_completed == catalog_.size();
  }

  const ServerCounters& counters() const { return counters_; }
  const std::vector<packaging::Workunit>& catalog() const { return catalog_; }
  const ResultInstance& result(std::uint64_t result_id) const;
  /// The deadline the result's Assignment carried: sent_time plus
  /// ServerConfig::deadline, the one place it is computed.
  double result_deadline(std::uint64_t result_id) const {
    return result(result_id).sent_time + config_.deadline;
  }
  WorkunitState workunit_state(std::uint32_t index) const;
  std::uint64_t workunits_remaining() const {
    return catalog_.size() - counters_.workunits_completed;
  }

  /// Positions completed per receptor protein — the Fig. 7 progression data.
  /// `receptor_count` sizes the output vector.
  // --- queue/record introspection (tests, invariants, capacity checks) ---
  /// Copies of a workunit sent so far (the full count — the counter no
  /// longer saturates at 255 the way the original u8 field did).
  std::uint32_t workunit_issues(std::uint32_t index) const;
  /// Instances of a workunit currently on devices.
  std::uint32_t workunit_outstanding(std::uint32_t index) const;
  std::size_t reissue_queue_size() const { return reissue_queue_.size(); }
  std::size_t extra_copy_queue_size() const {
    return extra_copy_queue_.size();
  }
  std::size_t endgame_queue_size() const { return endgame_queue_.size(); }
  /// Corruption tags held for results waiting for their quorum partner.
  std::size_t held_tags() const { return held_tags_.size(); }

  /// The validation policy driving redundancy decisions (reports, tests).
  const ValidationPolicy& policy() const { return *policy_; }
  ValidationPolicy& policy() { return *policy_; }

  std::vector<std::uint64_t> completed_positions_per_receptor(
      std::uint32_t receptor_count) const;

  /// Reference seconds of completed (assimilated) work per receptor, and
  /// the catalogue totals — the Fig. 7 computation-progress axes.
  std::vector<double> completed_reference_seconds_per_receptor(
      std::uint32_t receptor_count) const;
  std::vector<double> total_reference_seconds_per_receptor(
      std::uint32_t receptor_count) const;

 private:
  /// Queue-membership bits in WorkunitRecord::queue_flags: each bounded
  /// queue tracks membership on the record, so an index is never enqueued
  /// twice and queue sizes stay <= the live workunit count. (The re-issue
  /// queue is exempt: a quorum mismatch legitimately queues the same
  /// workunit twice, so it keeps a per-record count instead of a bit.)
  static constexpr std::uint8_t kInEndgameQueue = 1u << 0;
  static constexpr std::uint8_t kInExtraCopyQueue = 1u << 1;
  /// Oracle bit: the assimilated canonical result was silently corrupt.
  static constexpr std::uint8_t kDoneCorrupt = 1u << 2;

  /// 16 bytes; the records array is O(catalogue) and alive for the whole
  /// campaign, so it is kept dense. `pending_result` holds a result *index*
  /// (ids are issued densely from 0, so index == id) to fit 32 bits.
  struct WorkunitRecord {
    WorkunitState state = WorkunitState::kUnsent;
    std::uint8_t quorum_needed = 1;    ///< valid results required
    std::uint8_t target_issues = 1;    ///< initial copies to send
    std::uint8_t queue_flags = 0;      ///< kIn*Queue / kDoneCorrupt bits
    std::uint16_t outstanding = 0;     ///< instances currently on devices
    std::uint16_t reissues_queued = 0; ///< entries in the re-issue queue
    std::uint32_t issues = 0;          ///< copies sent so far (full count)
    /// Dual-purpose result slot (kNoPending when empty). While the workunit
    /// is in progress under quorum-2: the clean-looking result waiting for
    /// its partner. Once assimilated: the canonical result, so late copies
    /// can credit or penalise the device whose result the project kept.
    std::uint32_t pending_result = kNoPending;

    bool done_corrupt() const { return queue_flags & kDoneCorrupt; }
    void set_done_corrupt() { queue_flags |= kDoneCorrupt; }
  };
  static constexpr std::uint32_t kNoPending = 0xFFFFFFFFu;
  static_assert(sizeof(WorkunitRecord) == 16);

  std::uint64_t issue(std::uint32_t wu_index, std::uint32_t device_id,
                      double now);
  void assimilate(std::uint32_t wu_index);

  std::vector<packaging::Workunit> catalog_;
  ServerConfig config_;
  util::Rng rng_;
  std::vector<WorkunitRecord> records_;
  /// Result instances, issued densely from id 0. Chunked storage keeps
  /// references stable across issues and avoids the ~2x transient of vector
  /// doubling on the campaign's hundreds of thousands of instances.
  util::ChunkedVector<ResultInstance, 1024> results_;
  /// Nonzero corruption tags of the results held in a pending_result slot
  /// for their quorum partner, by result index; the comparison takes the
  /// tag out. Only silently corrupt returns carry a tag, so this stays as
  /// small as the pending corrupt results.
  std::unordered_map<std::uint32_t, std::uint64_t> held_tags_;
  /// Finds an outstanding workunit for end-game duplication, or returns
  /// false. Picks pop a staging queue; when it drains, a rebuild scans the
  /// survivors (the workunits not yet done), so its cost is proportional to
  /// the survivors left, never to the catalogue.
  bool pick_endgame(std::uint32_t& wu_index);

  /// The pluggable redundancy/validation decision maker (never null after
  /// construction). Decisions and reputation updates all happen inside
  /// server calls, so policy state follows the same merge-order determinism
  /// as the record store.
  std::unique_ptr<ValidationPolicy> policy_;
  void push_reissue(std::uint32_t wu_index) {
    ++records_[wu_index].reissues_queued;
    reissue_queue_.push_back(wu_index);
    if (tracer_)
      tracer_->record(obs::TraceCat::kWorkunit, obs::TraceEv::kWuReissue,
                      last_now_, wu_index,
                      static_cast<std::uint32_t>(reissue_queue_.size()));
  }
  std::deque<std::uint32_t> reissue_queue_;
  /// Workunits whose redundancy regime wants a second initial copy; each
  /// index is pushed once at first issue and popped once.
  std::deque<std::uint32_t> extra_copy_queue_;
  std::deque<std::uint32_t> endgame_queue_;
  /// Ascending indices of the workunits not yet done, built at the first
  /// end-game rebuild and compacted at each later one.
  std::vector<std::uint32_t> survivors_;
  bool survivors_built_ = false;
  /// Set whenever a record's state/outstanding changes; cleared by an
  /// end-game rebuild so empty rebuilds are not repeated needlessly.
  bool endgame_dirty_ = true;
  std::size_t next_unsent_ = 0;
  /// pop_due's cursor: the first result id whose deadline it has not
  /// passed.
  std::uint64_t next_due_ = 0;
  std::uint64_t in_progress_ = 0;
  ServerCounters counters_;

  // --- telemetry sinks (optional; decisions never read them) ---
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* registry_ = nullptr;
  obs::MetricId hist_turnaround_;      ///< received - sent, seconds
  obs::MetricId hist_reissue_depth_;   ///< re-issue queue depth per RPC
  /// Time of the last RPC into the server: push_reissue has no `now`
  /// parameter of its own, so reissue traces stamp the enclosing call's.
  double last_now_ = 0.0;
};

}  // namespace hcmd::server
