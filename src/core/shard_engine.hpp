// Sharded epoch-barrier campaign engine.
//
// The sequential campaign ran one Simulation holding every device and every
// server timer — single-threaded by construction, ~40 minutes for the
// full-scale (290k-device, 26-week) Phase I run. This engine partitions the
// fleet into K sub-simulations (shard = global id mod K) that advance
// independently through fixed epoch windows and meet at a barrier where all
// server interaction happens:
//
//   * while a shard advances, its devices never touch the ProjectServer —
//     work requests and result returns go into the shard's UplinkMailbox
//     (client/uplink.hpp) as proto::RequestWork / proto::ReportResult
//     entries (server::BatchEntry) carrying the global device id and
//     stamped with the simulation time they happened at;
//   * at the epoch barrier T_b the engine drains every mailbox, sorts the
//     entries and replays them through server::Replayer, which merges in
//     the due deadline ticks and control items (Fig. 7 snapshots, churn
//     spikes, outage markers), against the single logical server in
//     ascending (time, lane, key) order. Each entry goes through
//     Replayer::apply, the apply the wire service uses too; the engine
//     adds only what a campaign needs on top: the answer to a work
//     request, cut down to the client::WorkReply the fleet acts on, is
//     queued on the downlink of shard gid % K for local device gid / K,
//     and a report feeds the weekly series, credit and the Fig. 8 buffer;
//   * each shard applies its downlink, in merged order, at the start of
//     its next advance, in parallel with the other shards; run_until
//     applies the last barrier's downlinks before it returns, so observers
//     between run_until calls see every answer delivered. A device's
//     answers arrive in the order the serial replay produced them and
//     touch only that device's state and RNG, so the shards' event streams
//     are the same as if the replay had delivered them itself;
//   * the shards advance on persistent workers (util::WorkerGroup): the
//     calling thread is lane 0, and lane w of min(K, hardware threads)
//     lanes owns the shards s ≡ w (mod lanes);
//   * every ordering key is built from shard-count-independent quantities —
//     message time, global device id, per-device sequence number, result id
//     — and every RNG stream a device consumes is forked from its global
//     id, so a run at K shards is bit-identical to the sequential engine
//     (K = 1 runs through the identical mailbox-and-barrier machinery).
//
// The visible semantic change vs. the old synchronous engine is assignment
// latency: a device that asks for work at time t starts crunching at the
// next barrier (mean epoch/2, with hourly epochs ~30 simulated minutes) —
// indistinguishable from a scheduler RPC queueing delay at fleet scale.
//
// Aggregation is shard-count-invariant by design: registry counters are
// striped atomics (exact sums in any interleaving), weekly run-time meters
// accumulate per shard in util::ExactSum bins (addition is exact, hence
// associative — the merge cannot depend on the partition), and the fault
// layer keeps one FaultSchedule instance per shard plus one server-side,
// all forked identically, whose counters sum for the report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "client/fleet.hpp"
#include "client/uplink.hpp"
#include "faults/plan.hpp"
#include "faults/schedule.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "server/merge_order.hpp"
#include "server/replayer.hpp"
#include "server/server.hpp"
#include "server/share_schedule.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/worker_group.hpp"

namespace hcmd::core {

/// The campaign's weekly series, binned by week from t = 0. The engine
/// appends the server-side ones at barriers, in merged order, and folds
/// the fleets' exact run-time bins into the run-time ones at finalize().
struct WeeklySeries {
  /// A finite `horizon` reserves every series through it, so the weekly
  /// appends never allocate mid-run.
  explicit WeeklySeries(double horizon = 0.0);

  util::TimeBinnedSeries hcmd_runtime;
  util::TimeBinnedSeries wcg_runtime;
  util::TimeBinnedSeries results;
  util::TimeBinnedSeries useful_results;
  util::TimeBinnedSeries credit;
};

struct ShardEngineOptions {
  /// Number of fleet partitions (>= 1). One shard reproduces the sequential
  /// engine exactly; any K produces bit-identical results.
  std::uint32_t shards = 1;
  /// Main tracer (may be null). With one shard it is wired straight into
  /// the fleet; with several, each shard records into a private tracer
  /// (record() is not thread-safe) absorbed at finalize().
  obs::Tracer* tracer = nullptr;
  /// Agent behaviour knobs, forwarded to every shard's fleet.
  client::AgentConfig agent;
};

class ShardEngine {
 public:
  /// The engine owns the shard simulations and fleets; the caller owns the
  /// server, schedule, registry and series. `faults_rng` must be the stream
  /// dedicated to fault draws (campaigns pass root.fork("faults")); every
  /// per-shard FaultSchedule instance is constructed from a copy, so
  /// straggler classification and outage windows agree across shards.
  ShardEngine(server::ProjectServer& project,
              const server::ShareSchedule& schedule, obs::Registry& registry,
              WeeklySeries& weekly, const faults::FaultPlan& fault_plan,
              util::Rng faults_rng,
              ShardEngineOptions options);

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  // --- population ---------------------------------------------------------
  void reserve_devices(std::size_t n);
  /// Pre-sizes the Fig. 8 runtime buffers (entries = received HCMD results).
  void reserve_runtimes(std::size_t n);
  /// Routes the device to shard spec.id % K, at local index spec.id / K:
  /// ids must be dense and added in order (0, 1, 2, ...). `rng` is the
  /// device's behaviour stream (forked from the global id by the caller);
  /// the engine forks the device's fault stream from its global id itself.
  void add_device(const volunteer::DeviceSpec& spec, util::Rng rng);
  std::size_t device_count() const { return device_count_; }

  // --- engine-level control items -----------------------------------------
  /// Runs `fn` in the barrier merge at time `t` — ordered against messages
  /// and deadlines by time (control first among equals), so the callback
  /// did. Register before the first run_until.
  void schedule_control(double t, std::function<void()> fn) {
    replayer_.schedule_control(t, std::move(fn));
  }

  // --- run ----------------------------------------------------------------
  /// Advances all shards to `until` in hourly epoch steps, processing a
  /// barrier at each epoch boundary. `until` must be a whole number of
  /// hours away from the current time (the campaign's weekly chunks are).
  void run_until(double until);
  double now() const { return now_; }

  /// Raw simulation time at which the last workunit assimilated (< 0 while
  /// incomplete).
  double completion_time_raw() const { return completion_raw_; }
  /// The sequential engine detected completion with a daily tick; this
  /// reproduces that timestamp (first daily tick at or after the raw time).
  double completion_time_daily() const;

  /// Merges per-shard state into the caller-visible sinks: shard tracers
  /// into the main tracer, exact weekly run-time bins into the weekly
  /// series. Call once, after the last run_until.
  void finalize();

  // --- reduction accessors ------------------------------------------------
  std::uint64_t processed_events() const;
  std::size_t pending_events() const;
  /// Fault tallies summed over the server-side instance and every shard.
  faults::FaultCounters fault_counters() const;
  bool faults_active() const { return server_faults_.active(); }

  /// Reported runtimes of received HCMD results grouped by global device
  /// id (stable within a device) — the Fig. 8 ordering contract.
  std::vector<double> runtimes_by_device() const;
  /// Chronological reported runtimes for one device (test helper).
  std::vector<double> reported_hcmd_runtimes(std::uint32_t global_id) const;

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  const client::VolunteerFleet& fleet(std::uint32_t shard) const {
    return shards_[shard]->fleet;
  }

 private:
  struct Shard {
    sim::Simulation sim;
    client::UplinkMailbox mailbox;
    /// Answers from the last barrier, in merged order, not yet delivered.
    std::vector<client::WorkReply> downlink;
    faults::FaultSchedule faults;
    client::VolunteerFleet fleet;
    /// Private tracer when K > 1 and tracing is on (absorbed at finalize).
    std::unique_ptr<obs::Tracer> own_tracer;

    Shard(const server::ShareSchedule& schedule, obs::Registry& registry,
          const faults::FaultPlan& plan, const util::Rng& faults_rng,
          obs::Tracer* tracer, const client::AgentConfig& agent);
  };

  /// Sort key for one drained uplink entry: the shared merge order
  /// (server/merge_order.hpp) over shard-count-independent quantities.
  /// shard/index locate the entry in its mailbox.
  struct MessageRef {
    server::MergeKey key;
    std::uint32_t shard = 0;
    std::uint32_t index = 0;
  };

  void advance_shards(double until);
  static void deliver_replies(Shard& shard);
  void process_barrier(double t);
  void process_message(const server::BatchEntry& m);

  server::ProjectServer& project_;
  WeeklySeries& weekly_;
  ShardEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Server-side fault instance: deadline deferrals, outage/churn notes —
  /// events that belong to the barrier, not to any shard.
  faults::FaultSchedule server_faults_;
  util::Rng faults_rng_;  ///< per-device fault streams fork from this
  /// Control lane, transitioner deadlines and outage deferral.
  server::Replayer replayer_;
  // Barrier scratch, reused across epochs (no per-epoch allocation in
  // steady state).
  std::vector<MessageRef> msg_order_;
  /// Each lane's advance wall time in the current round, nanoseconds.
  std::vector<std::uint64_t> lane_ns_;

  // Fig. 8 buffers, keyed by global device id, in merged receive order.
  std::vector<std::uint32_t> runtime_device_;
  std::vector<double> runtime_value_;

  double now_ = 0.0;
  double completion_raw_ = -1.0;
  std::size_t device_count_ = 0;
  bool events_reserved_ = false;
  /// Lanes 1.. of the shard advance; null when one lane runs every shard.
  /// Declared last: its threads are joined before the shards go.
  std::unique_ptr<util::WorkerGroup> workers_;
};

}  // namespace hcmd::core
