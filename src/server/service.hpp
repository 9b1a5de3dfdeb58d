// GridService: the wire-mode RPC semantics over the in-process ProjectServer.
//
// The network layer (server/net.hpp) owns sockets and threads; this class
// owns meaning. It is single-threaded by contract — only the dedicated
// service thread calls into it — and processes traffic in *batches*: the
// net layer drains every worker's MPSC uplink queue, hands the batch over,
// and the service sorts it by (time, device, seq) and replays it through
// the server::Replayer the sharded campaign engine uses at its epoch
// barriers, interleaved with the deadline ticks due in the batch window.
//
// So wire mode is a frontend over the identical store + replay machinery
// the simulator proved out, not a second scheduler: a work request or a
// report goes through the same Replayer::apply as the simulated fleet's,
// so outage refusals (Busy + retry-after), duplicate returns (acked with
// the state the instance already ended in, moving nothing) and reports
// from a device the result was never issued to (kUnknownResult) are
// decided there, for both front ends.
//
// What the wire adds on top:
//   * devices past kMaxDevices are refused before they reach the server;
//   * the admin verbs (get_status, get_metrics, dump_diagnostics);
//   * every decision bumps an interned rpc.* counter, and issue latency
//     (request arrival -> handled) is recorded into an obs:: histogram;
//   * span accounting and encoding of the reply frame.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "faults/plan.hpp"
#include "faults/schedule.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "server/protocol.hpp"
#include "server/replayer.hpp"
#include "server/server.hpp"
#include "util/rng.hpp"

namespace hcmd::server {

/// Deterministic 1-in-N sampling for the span *statistics* (stage
/// histograms and flight-recorder events). Counters, the SLO violation
/// count and per-request span echoes stay exact regardless — sampling only
/// thins the distribution estimates, which converge fine from a 1/16
/// systematic sample at any realistic request rate, and it is what keeps
/// spans-on within the 1.05x throughput gate.
inline constexpr std::uint32_t kSpanSampleEvery = 16;

struct ServiceConfig {
  ServerConfig server;
  faults::FaultPlan faults;
  std::uint64_t seed = 0x5e44e3;
  /// Per-RPC span accounting: stage histograms, SLO tracking, and the span
  /// echo for clients that set kFlagWantSpan. Off = zero per-request cost
  /// beyond the existing counters (the bench gate's control arm).
  bool spans = true;
  /// Latency objective for request_work (server-side total, service
  /// seconds); the snapshotter turns it into an SLO burn gauge.
  double slo_latency_seconds = 0.005;
};

/// One decoded RPC as it travels from a network worker to the service
/// thread: a batch entry whose `time` is the arrival stamp in service
/// seconds (span stamp t_read), plus its connection. `conn` is an opaque
/// routing token the net layer uses to find the connection again.
struct WireRequest : BatchEntry {
  std::uint64_t conn = 0;
  /// Span stamp: pushed onto the uplink queue. Directly-constructed
  /// requests (tests, benches) may leave it 0.0: the span echo re-clamps
  /// it to `time`.
  double t_enqueue = 0.0;

  proto::Verb verb() const {
    return std::visit([](const auto& r) { return r.kVerb; }, msg);
  }
  /// proto::kFlag* bits from the request's optional tail (0 for the verbs
  /// that have none).
  std::uint8_t flags() const {
    return std::visit(
        [](const auto& r) -> std::uint8_t {
          if constexpr (requires { r.flags; })
            return r.flags;
          else
            return 0;
        },
        msg);
  }
};

/// One encoded response frame, routed back by connection token. The verb /
/// device / seq / decision-stamp echo lets the net layer attribute the
/// reply's write time to the right per-verb histogram and flight events
/// without re-decoding its own bytes.
struct WireResponse {
  std::uint64_t conn = 0;
  proto::Verb verb = proto::Verb::kError;
  std::uint32_t device = 0;
  std::uint64_t seq = 0;
  double t_decision = 0.0;
  std::vector<std::uint8_t> bytes;
};

/// Stage-histogram bucketing for span accounting: one histogram set per
/// request class, not per raw verb (error replies fold into the class of
/// the verb that caused them).
enum class RpcClass : std::uint8_t {
  kRequestWork = 0,
  kReport,
  kStatus,
  kOther,  ///< admin verbs (metrics, diagnostics) and unknown verbs
  kCount,
};
inline constexpr std::size_t kRpcClassCount =
    static_cast<std::size_t>(RpcClass::kCount);

RpcClass rpc_class(proto::Verb request_verb);
const char* rpc_class_name(RpcClass c);

class GridService {
 public:
  /// The catalogue must already be in launch order, exactly as for a
  /// direct ProjectServer. Throws ConfigError on bad config (empty
  /// catalogue, invalid fault plan, ...).
  GridService(std::vector<packaging::Workunit> catalog, ServiceConfig config);

  GridService(const GridService&) = delete;
  GridService& operator=(const GridService&) = delete;

  /// Replays `batch` against the server in merge order, interleaved with
  /// the deadline ticks due by `now`, and appends one response per request
  /// to `out`. The batch vector is sorted in place.
  void process_batch(std::vector<WireRequest>& batch, double now,
                     std::vector<WireResponse>& out);

  /// Single-request convenience (tests): merge-orders a batch of one.
  WireResponse handle(const WireRequest& request);

  // --- live-observability wiring (all single-threaded, like the rest) ------

  /// Decision-stamp source (service seconds). Defaults to the batch
  /// dequeue time, which keeps direct/test use deterministic; the net
  /// layer injects its wall×scale clock so service_seconds is real.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  /// Answers kGetMetrics. The net layer injects its snapshotter (which
  /// merges worker-side data in); without one the service renders its own
  /// registry.
  void set_metrics_provider(
      std::function<std::string(proto::MetricsFormat)> provider) {
    metrics_provider_ = std::move(provider);
  }
  /// Answers kDumpDiagnostics with (path, events). The net layer injects
  /// the merged flight-record dump; without one the service dumps its own
  /// tracer ring.
  void set_diagnostics_sink(
      std::function<std::pair<std::string, std::uint64_t>()> sink) {
    diagnostics_sink_ = std::move(sink);
  }
  /// Service-seconds per wall-second (the net layer's time_scale), used to
  /// report wall-clock uptime in get_status. 1.0 when unset.
  void set_time_scale(double scale) { time_scale_ = scale; }

  // --- introspection -------------------------------------------------------
  const ServiceConfig& config() const { return config_; }
  const ProjectServer& project() const { return project_; }
  ProjectServer& project() { return project_; }
  const faults::FaultSchedule& fault_schedule() const { return faults_; }
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  std::uint64_t rpc_requests() const { return registry_.total(ctr_requests_); }
  /// Live deadline ticks between batches: the results in progress.
  std::uint64_t deadlines_armed() const {
    return project_.results_in_progress();
  }
  double last_batch_time() const { return now_; }

 private:
  void apply(const WireRequest& m, std::vector<WireResponse>& out);
  /// The sampled span slow path (stage histogram observes + flight
  /// event): runs 1-in-kSpanSampleEvery sends and resets the countdown.
  /// Out of line to keep send<Msg>()'s per-reply code to the cursor
  /// decrement and the SLO compare.
  void note_span(const WireRequest& m, double t_read, double t_deq,
                 double t_dec);

  template <typename Msg>
  void send(const WireRequest& m, std::vector<WireResponse>& out, Msg msg);
  std::string default_metrics(proto::MetricsFormat format) const;
  std::pair<std::string, std::uint64_t> default_diagnostics_dump();

  ServiceConfig config_;
  ProjectServer project_;
  faults::FaultSchedule faults_;
  Replayer replayer_{project_, faults_};
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::function<double()> clock_;
  std::function<std::string(proto::MetricsFormat)> metrics_provider_;
  std::function<std::pair<std::string, std::uint64_t>()> diagnostics_sink_;
  double time_scale_ = 1.0;
  double now_ = 0.0;
  double dequeue_time_ = 0.0;  ///< current batch's drain stamp (t_dequeue)
  std::uint32_t span_countdown_ = 1;  ///< 1-in-kSpanSampleEvery cursor

  // Interned once at construction; the hot path is indexed adds only.
  obs::MetricId ctr_requests_;
  obs::MetricId ctr_assignments_;
  obs::MetricId ctr_no_work_;
  obs::MetricId ctr_busy_;
  obs::MetricId ctr_reports_;
  obs::MetricId ctr_duplicate_reports_;
  obs::MetricId ctr_status_;
  obs::MetricId ctr_errors_;
  obs::MetricId ctr_metrics_;
  obs::MetricId ctr_diagnostics_;
  obs::MetricId ctr_slo_violations_;
  obs::MetricId hist_issue_wait_;  ///< arrival -> handled, seconds
  // Per-class span stage histograms (single-writer, service thread only).
  std::array<obs::MetricId, kRpcClassCount> hist_queue_wait_{};
  std::array<obs::MetricId, kRpcClassCount> hist_service_{};
};

/// Deterministic synthetic catalogue for service benchmarking: `count`
/// workunits whose reference cost cycles through a small spread around
/// `target_hours` (the packaged Phase I shape without paying for protein
/// generation + calibration at server start).
std::vector<packaging::Workunit> synthetic_catalog(std::uint32_t count,
                                                   double target_hours);

}  // namespace hcmd::server
