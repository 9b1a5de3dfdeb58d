// The one replay loop and the one apply path in front of the logical
// project server.
//
// Everything that reaches the ProjectServer is applied in batches of
// BatchEntry requests: shard mailboxes drained at an epoch barrier
// (core::ShardEngine) and RPCs drained from the network workers
// (GridService). A batch ending at time t interleaves three lanes in the
// merge order of server/merge_order.hpp:
//
//   control items   scripted callbacks (Fig. 7 snapshots, churn spikes,
//                   outage markers), in (time, registration) order;
//   deadline ticks  the transitioner ticks due by t, in (time, id) order;
//   messages        supplied by the caller, already sorted.
//
// Both callers drive it the same way:
//
//   replayer.open(t);
//   for each entry e in merge order:
//     replayer.fire_until(e.time);  decision = replayer.apply(e)
//   replayer.fire_until(t);
//
// so equal-time items run control < deadline < message. The server's
// result records are the transitioner's schedule: `open` takes every
// tick due by t from ProjectServer::pop_due, whose cursor passes the
// results in id order, which is deadline order, and keeps those still in
// progress. A report applied later in the batch cannot stop a tick
// already taken, which then runs as a no-op transitioner pass.
//
// `apply` is the server-facing half of a request, the same for both
// callers: an outage answers Busy; a work request is issued or denied; a
// report for a result never issued to the reporting device is refused, a
// repeated one is acked as a duplicate and moves nothing, and a first one
// is validated. The engine adds fleet delivery, the weekly series and
// credit; the service adds its admin verbs, counters and encoding.
//
// Outage deferral: a tick that falls inside a fault-plan outage runs no
// transitioner pass. It is noted and moved to the moment the outage lifts:
// into this batch, in (time, id) order, when that is at or before t, and
// otherwise into the deferred heap, which `open` merges with the server's
// ticks in (time, id) order once the new time is due. The deferred pass
// sees a time past the original deadline, so the timeout still registers
// then, unless the result is reported first.
#pragma once

#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "faults/schedule.hpp"
#include "obs/trace.hpp"
#include "server/merge_order.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace hcmd::server {

/// One request in a replay batch: the decoded message and the time it
/// reached the server. The fleet stamps its simulation time and its global
/// device id; the wire service stamps the arrival time (its WireRequest
/// adds the connection).
struct BatchEntry {
  double time = 0.0;
  proto::Request msg;

  std::uint32_t device() const {
    return std::visit([](const auto& r) { return r.device; }, msg);
  }
  std::uint64_t seq() const {
    return std::visit([](const auto& r) { return r.seq; }, msg);
  }
  MergeKey key() const { return {time, device(), seq()}; }
};

/// The server's answer to a work request or a report, echoing the
/// request's device and seq.
using Decision = std::variant<proto::Assignment, proto::NoWork, proto::Busy,
                              proto::ReportAck, proto::ErrorMsg>;

class Replayer {
 public:
  /// `faults` is the server-side schedule (only an active one defers
  /// ticks); `tracer`, when set, records every transitioner pass.
  Replayer(ProjectServer& project, faults::FaultSchedule& faults,
           obs::Tracer* tracer = nullptr)
      : project_(project), faults_(faults), tracer_(tracer) {}

  /// Runs `fn` in the batch that covers time `t`, ahead of the ticks and
  /// messages at that time. Register every control before the first open.
  void schedule_control(double t, std::function<void()> fn);

  /// Applies a RequestWork or ReportResult entry at its time; the admin
  /// verbs are the caller's. Every work request and report reaches the
  /// server through here.
  Decision apply(const BatchEntry& entry);

  /// Starts the batch ending at `t` and takes every tick due by then.
  void open(double t);
  /// Runs, in merge order, every control item and taken tick with
  /// time <= t.
  void fire_until(double t);

 private:
  struct Control {
    double time = 0.0;
    std::function<void()> fn;
  };

  void run_tick(DeadlineTick tick);

  ProjectServer& project_;
  faults::FaultSchedule& faults_;
  obs::Tracer* tracer_;
  std::vector<Control> controls_;  ///< sorted by time at the first open
  std::size_t next_control_ = 0;
  bool opened_ = false;
  double end_ = 0.0;  ///< the open batch's end time
  /// Ticks taken for the open batch, (time, id) order; reused across
  /// batches, so steady-state replay does not allocate.
  std::vector<DeadlineTick> due_;
  std::size_t next_due_ = 0;
  /// Min-heap of the ticks an outage moved past their batch's end.
  std::vector<DeadlineTick> deferred_;
};

}  // namespace hcmd::server
