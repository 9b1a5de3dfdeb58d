#include "client/loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "client/wire.hpp"
#include "faults/schedule.hpp"
#include "obs/json.hpp"
#include "server/validation_policy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "volunteer/device.hpp"

namespace hcmd::client {

namespace {

namespace proto = hcmd::server::proto;

/// Closed-loop state for one simulated device. One RPC in flight at most.
struct Device {
  enum class Phase : std::uint8_t {
    kIdle,      ///< ready to ask for work (or retry a buffered report)
    kAwaitWork,
    kAwaitAck,
    kDone,      ///< server said project complete
  };

  std::uint32_t gid = 0;
  Phase phase = Phase::kIdle;
  std::uint64_t seq = 0;
  double send_wall = 0.0;        ///< wall stamp of the in-flight RPC
  double backoff_until = 0.0;    ///< service time gate on kIdle
  std::uint32_t attempt = 0;     ///< consecutive Busy responses
  bool pending_report = false;   ///< deferred upload awaiting retry
  proto::ReportResult pending;
  std::uint64_t corruption_counter = 0;
  double speed = 0.25;           ///< reference seconds per attached second
  util::Rng rng{0};
};

/// Per-thread tallies; merged into the LoadgenReport at join.
struct ThreadStats {
  std::uint64_t replies = 0;
  std::uint64_t assignments = 0;
  std::uint64_t no_work = 0;
  std::uint64_t busy = 0;
  std::uint64_t acks = 0;
  std::uint64_t duplicate_acks = 0;
  std::uint64_t errors = 0;
  std::uint64_t reports_lost = 0;
  std::uint64_t reports_corrupted = 0;
  std::uint64_t backoff_waits = 0;
  std::uint64_t deferred_uploads = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t span_replies = 0;
  obs::LogHistogram issue_latency;
  obs::LogHistogram report_latency;
  obs::LogHistogram span_queue_wait;
  obs::LogHistogram span_service;
  obs::LogHistogram span_total;
  obs::LogHistogram net_residual;
};

class FarmThread {
 public:
  /// `devices` is this connection's share of the farm, dealt round-robin:
  /// slot s holds gid s * stride + devices[0].gid.
  FarmThread(const LoadgenOptions& options, const faults::FaultSchedule& faults,
             std::vector<Device> devices, std::uint32_t stride)
      : options_(options), faults_(faults), devices_(std::move(devices)),
        stride_(stride) {
    idle_.reserve(devices_.size());
    for (std::uint32_t s = 0; s < devices_.size(); ++s) idle_.push_back(s);
  }

  void run() {
    try {
      WireClient client(options_.host, options_.port);
      loop(client);
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  const ThreadStats& stats() const { return stats_; }
  const std::string& error() const { return error_; }

 private:
  double wall() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  // Each pass drains the replies that have arrived, queues a request for
  // every idle device whose backoff has passed, and sends all of it, the
  // reports the replies produced included, in one flush. Its cost follows
  // the replies and the idle devices, never the size of the farm.
  void loop(WireClient& client) {
    start_ = std::chrono::steady_clock::now();
    while (wall() < options_.duration_seconds && done_ < devices_.size()) {
      bool received = false;
      while (std::optional<WireReply> r = client.poll_reply()) {
        dispatch(client, *r, wall());
        received = true;
      }
      const bool sent = send_idle(client);
      client.flush();
      if (!sent && !received) {
        // Everything is in flight or backing off: sleep on the socket
        // instead of spinning.
        pollfd p{client.fd(), POLLIN, 0};
        ::poll(&p, 1, 1);
      }
    }
  }

  /// Queues a request for each idle device whose backoff has passed and
  /// takes it off the idle list; devices still backing off stay on it.
  bool send_idle(WireClient& client) {
    const double w = wall();
    const double now = w * options_.time_scale;  // service seconds
    std::size_t kept = 0;
    for (const std::uint32_t slot : idle_) {
      Device& d = devices_[slot];
      if (now < d.backoff_until) {
        idle_[kept++] = slot;
        continue;
      }
      if (d.pending_report) {
        d.pending.seq = ++d.seq;
        client.queue(d.pending);
        d.phase = Device::Phase::kAwaitAck;
      } else {
        proto::RequestWork req;
        req.device = d.gid;
        req.seq = ++d.seq;
        if (options_.spans) req.flags = proto::kFlagWantSpan;
        client.queue(req);
        d.phase = Device::Phase::kAwaitWork;
      }
      d.send_wall = w;
      ++stats_.requests_sent;
    }
    const bool sent = kept < idle_.size();
    idle_.resize(kept);
    return sent;
  }

  Device* find(std::uint32_t gid) {
    const std::size_t slot = gid / stride_;
    if (slot >= devices_.size() || devices_[slot].gid != gid) return nullptr;
    return &devices_[slot];
  }

  void make_idle(Device& d) {
    d.phase = Device::Phase::kIdle;
    idle_.push_back(static_cast<std::uint32_t>(&d - devices_.data()));
  }

  void dispatch(WireClient& client, const WireReply& r, double w) {
    ++stats_.replies;
    Device* dp = find(r.device);
    if (dp == nullptr || r.seq != dp->seq) return;  // stale or foreign echo
    Device& d = *dp;
    const double rtt = w - d.send_wall;
    const double now = w * options_.time_scale;

    if (const std::optional<proto::SpanBlock> span = r.span()) {
      // Span stamps tick in service seconds; divide back to wall seconds so
      // the stage histograms are comparable with the rtt distributions.
      const double inv = 1.0 / options_.time_scale;
      const double queue_wait = (span->t_dequeue - span->t_read) * inv;
      const double service = (span->t_decision - span->t_dequeue) * inv;
      const double total = (span->t_decision - span->t_read) * inv;
      ++stats_.span_replies;
      stats_.span_queue_wait.record(queue_wait);
      stats_.span_service.record(service);
      stats_.span_total.record(total);
      stats_.net_residual.record(std::max(0.0, rtt - total));
    }

    switch (r.verb) {
      case proto::Verb::kAssignment: {
        stats_.issue_latency.record(rtt);
        ++stats_.assignments;
        d.attempt = 0;
        // "Compute" instantly: a load generator compresses crunch time to
        // zero but keeps the accounting the device model would report.
        const proto::Assignment& a = r.get<proto::Assignment>();
        proto::ReportResult report;
        report.device = d.gid;
        report.result_id = a.result_id;
        report.reported_runtime = a.reference_seconds / d.speed;
        report.reference_seconds = a.reference_seconds;
        const faults::ResultFate fate =
            faults_.draw_result_fate(d.gid, d.rng);
        if (fate == faults::ResultFate::kLost) {
          // The finished result evaporates before upload; only the server's
          // deadline pass can recover the workunit.
          ++stats_.reports_lost;
          make_idle(d);
          break;
        }
        if (fate != faults::ResultFate::kClean) {
          report.silent_error = true;
          report.corruption_tag =
              faults::corruption_tag(d.gid, ++d.corruption_counter);
          ++stats_.reports_corrupted;
        }
        report.seq = ++d.seq;
        queue_report(client, report, d, w);
        break;
      }
      case proto::Verb::kNoWork:
        stats_.issue_latency.record(rtt);
        ++stats_.no_work;
        d.attempt = 0;
        if (r.get<proto::NoWork>().project_complete) {
          d.phase = Device::Phase::kDone;
          ++done_;
        } else {
          make_idle(d);
        }
        break;
      case proto::Verb::kBusy: {
        // The server is in an outage window: back off on the same capped
        // exponential the simulated fleet draws, jitter from the device's
        // own stream.
        if (d.phase == Device::Phase::kAwaitWork)
          stats_.issue_latency.record(rtt);
        if (d.phase == Device::Phase::kAwaitAck) ++stats_.deferred_uploads;
        ++stats_.busy;
        ++stats_.backoff_waits;
        const double delay = faults_.backoff_delay(d.attempt, d.rng);
        ++d.attempt;
        d.backoff_until = now + delay;
        make_idle(d);  // pending_report survives for retry
        break;
      }
      case proto::Verb::kReportAck:
        stats_.report_latency.record(rtt);
        ++stats_.acks;
        if (r.get<proto::ReportAck>().duplicate) ++stats_.duplicate_acks;
        d.attempt = 0;
        d.pending_report = false;
        make_idle(d);
        break;
      case proto::Verb::kError:
        ++stats_.errors;
        d.pending_report = false;
        make_idle(d);
        break;
      default:
        ++stats_.errors;
        break;
    }
  }

  /// Queues a report; the pass's flush sends it. Buffered on the device
  /// first: the ack may be an outage refusal and the report must survive
  /// to the retry.
  void queue_report(WireClient& client, const proto::ReportResult& report,
                    Device& d, double w) {
    d.pending = report;
    if (options_.spans) d.pending.flags = proto::kFlagWantSpan;
    d.pending_report = true;
    d.phase = Device::Phase::kAwaitAck;
    d.send_wall = w;
    ++stats_.requests_sent;
    client.queue(d.pending);
  }

  const LoadgenOptions& options_;
  const faults::FaultSchedule& faults_;
  std::vector<Device> devices_;
  std::uint32_t stride_;
  /// Slots of the devices in Phase::kIdle, backing-off ones included.
  std::vector<std::uint32_t> idle_;
  std::size_t done_ = 0;  ///< devices in Phase::kDone
  ThreadStats stats_;
  std::string error_;
  std::chrono::steady_clock::time_point start_;
};

void emit_histogram(obs::JsonWriter& w, const obs::LogHistogram& h) {
  w.begin_object();
  w.kv("count", h.total());
  w.kv("mean_seconds", h.mean());
  w.kv("min_seconds", h.min());
  w.kv("max_seconds", h.max());
  w.kv("p50_seconds", h.quantile(0.50));
  w.kv("p90_seconds", h.quantile(0.90));
  w.kv("p99_seconds", h.quantile(0.99));
  w.kv("p999_seconds", h.quantile(0.999));
  w.end_object();
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenOptions& options) {
  if (options.port == 0) throw ConfigError("loadgen: --port is required");
  if (options.devices == 0)
    throw ConfigError("loadgen: need at least one device");
  if (options.connections == 0)
    throw ConfigError("loadgen: need at least one connection");
  if (!(options.duration_seconds > 0.0))
    throw ConfigError("loadgen: duration must be positive");
  if (!(options.time_scale > 0.0))
    throw ConfigError("loadgen: time_scale must be positive");
  options.faults.validate();

  const std::uint32_t connections =
      std::min(options.connections, options.devices);

  // Shared client-side fault oracle: const queries only (rates + backoff
  // law); every draw comes from the device's own stream, so the farm is
  // deterministic per device regardless of thread interleaving.
  const faults::FaultSchedule faults(options.faults,
                                     util::Rng(options.seed).fork("faults"));

  // Devices drawn from the volunteer fleet model, round-robin across
  // connections.
  util::Rng root(options.seed);
  const volunteer::DeviceParams params;
  std::vector<std::vector<Device>> partitions(connections);
  for (std::uint32_t gid = 0; gid < options.devices; ++gid) {
    util::Rng dev_rng = root.fork("device-" + std::to_string(gid));
    const volunteer::DeviceSpec spec = volunteer::make_device(
        gid, 0.0, /*years_since_launch=*/2.1, dev_rng, params);
    Device d;
    d.gid = gid;
    d.speed = std::max(1e-3, spec.effective_speed());
    d.rng = dev_rng.fork("wire");
    partitions[gid % connections].push_back(std::move(d));
  }

  std::vector<std::unique_ptr<FarmThread>> farm;
  farm.reserve(connections);
  for (std::uint32_t c = 0; c < connections; ++c)
    farm.push_back(std::make_unique<FarmThread>(
        options, faults, std::move(partitions[c]), connections));

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (auto& f : farm)
    threads.emplace_back([&f] { f->run(); });
  for (auto& t : threads) t.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  for (const auto& f : farm)
    if (!f->error().empty())
      throw ConfigError("loadgen: " + f->error());

  LoadgenReport report;
  for (const auto& f : farm) {
    const ThreadStats& s = f->stats();
    report.requests_sent += s.requests_sent;
    report.replies += s.replies;
    report.assignments += s.assignments;
    report.no_work += s.no_work;
    report.busy += s.busy;
    report.acks += s.acks;
    report.duplicate_acks += s.duplicate_acks;
    report.errors += s.errors;
    report.reports_lost += s.reports_lost;
    report.reports_corrupted += s.reports_corrupted;
    report.backoff_waits += s.backoff_waits;
    report.deferred_uploads += s.deferred_uploads;
    report.span_replies += s.span_replies;
    report.issue_latency.merge(s.issue_latency);
    report.report_latency.merge(s.report_latency);
    report.span_queue_wait.merge(s.span_queue_wait);
    report.span_service.merge(s.span_service);
    report.span_total.merge(s.span_total);
    report.net_residual.merge(s.net_residual);
  }
  report.wall_seconds = wall_seconds;
  report.requests_per_sec =
      wall_seconds > 0.0 ? static_cast<double>(report.replies) / wall_seconds
                         : 0.0;

  // Server-side totals via the protocol itself.
  WireClient status_client(options.host, options.port);
  proto::GetStatus q;
  q.device = 0;
  q.seq = 1;
  status_client.queue(q);
  status_client.flush();
  const WireReply r = status_client.recv_reply();
  if (r.verb != proto::Verb::kStatus)
    throw ConfigError("loadgen: unexpected get_status reply");
  report.server_status = r.get<proto::Status>();

  return report;
}

std::string loadgen_json(const LoadgenOptions& options,
                         const LoadgenReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("kind", "loadgen");

  w.key("options").begin_object();
  w.kv("host", options.host);
  w.kv("port", static_cast<std::uint64_t>(options.port));
  w.kv("devices", static_cast<std::uint64_t>(options.devices));
  w.kv("connections", static_cast<std::uint64_t>(options.connections));
  w.kv("duration_seconds", options.duration_seconds);
  w.kv("time_scale", options.time_scale);
  w.kv("spans", options.spans);
  w.kv("seed", options.seed);
  w.end_object();

  w.kv("wall_seconds", report.wall_seconds);
  w.kv("requests_total", report.requests_sent);
  w.kv("replies_total", report.replies);
  w.kv("requests_per_sec", report.requests_per_sec);

  w.key("outcomes").begin_object();
  w.kv("assignments", report.assignments);
  w.kv("no_work", report.no_work);
  w.kv("busy", report.busy);
  w.kv("acks", report.acks);
  w.kv("duplicate_acks", report.duplicate_acks);
  w.kv("errors", report.errors);
  w.end_object();

  w.key("faults").begin_object();
  w.kv("reports_lost", report.reports_lost);
  w.kv("reports_corrupted", report.reports_corrupted);
  w.kv("backoff_waits", report.backoff_waits);
  w.kv("deferred_uploads", report.deferred_uploads);
  w.end_object();

  w.key("latency").begin_object();
  w.key("issue");
  emit_histogram(w, report.issue_latency);
  w.key("report");
  emit_histogram(w, report.report_latency);
  w.end_object();

  // Server-side stage breakdown from the span echoes (wall seconds). The
  // section is present whenever spans were requested, even if the server
  // declined every echo (span_replies == 0 flags that case).
  w.key("server_spans").begin_object();
  w.kv("span_replies", report.span_replies);
  w.key("queue_wait");
  emit_histogram(w, report.span_queue_wait);
  w.key("service");
  emit_histogram(w, report.span_service);
  w.key("total");
  emit_histogram(w, report.span_total);
  w.key("net_residual");
  emit_histogram(w, report.net_residual);
  w.end_object();

  const proto::Status& s = report.server_status;
  w.key("server").begin_object();
  w.kv("policy",
       server::policy_kind_name(static_cast<server::PolicyKind>(s.policy)));
  w.kv("results_sent", s.results_sent);
  w.kv("results_received", s.results_received);
  w.kv("results_valid", s.results_valid);
  w.kv("results_invalid", s.results_invalid);
  w.kv("results_timed_out", s.results_timed_out);
  w.kv("workunits_completed", s.workunits_completed);
  w.kv("workunits_total", s.workunits_total);
  w.kv("outage_denied", s.outage_denied);
  w.kv("rpc_requests", s.rpc_requests);
  w.kv("uptime_seconds", s.uptime_seconds);
  w.key("rpc").begin_object();
  w.kv("assignments", s.rpc_assignments);
  w.kv("no_work", s.rpc_no_work);
  w.kv("busy", s.rpc_busy);
  w.kv("reports", s.rpc_reports);
  w.kv("duplicate_reports", s.rpc_duplicate_reports);
  w.kv("status", s.rpc_status);
  w.kv("errors", s.rpc_errors);
  w.end_object();
  w.kv("now_seconds", s.now);
  w.kv("complete", s.complete);
  w.end_object();

  w.end_object();
  std::string doc = w.take();
  doc.push_back('\n');
  return doc;
}

}  // namespace hcmd::client
