#include "server/service.hpp"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <variant>

#include "obs/exposition.hpp"
#include "util/error.hpp"

namespace hcmd::server {

namespace {

/// Flight-recorder ring size (events) for the service-side tracer.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 14;

/// One visitor from a set of per-alternative lambdas.
template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

RpcClass rpc_class(proto::Verb request_verb) {
  switch (request_verb) {
    case proto::Verb::kRequestWork: return RpcClass::kRequestWork;
    case proto::Verb::kReportResult: return RpcClass::kReport;
    case proto::Verb::kGetStatus: return RpcClass::kStatus;
    default: return RpcClass::kOther;
  }
}

const char* rpc_class_name(RpcClass c) {
  switch (c) {
    case RpcClass::kRequestWork: return "request_work";
    case RpcClass::kReport: return "report";
    case RpcClass::kStatus: return "status";
    case RpcClass::kOther: return "other";
    case RpcClass::kCount: break;
  }
  return "?";
}

GridService::GridService(std::vector<packaging::Workunit> catalog,
                         ServiceConfig config)
    : config_(std::move(config)),
      project_(std::move(catalog), config_.server),
      faults_(config_.faults, util::Rng(config_.seed).fork("faults")),
      tracer_([&] {
        obs::Tracer::Options o;
        o.capacity = kTraceCapacity;
        // The service ring is dedicated to RPC decisions; every other
        // category is recorded by the owners of those events.
        o.sample_every = {0, 0, 0, 0, 0, 1};
        return o;
      }()) {
  if (config_.slo_latency_seconds <= 0.0)
    throw ConfigError("service: slo_latency_seconds must be positive");
  faults_.set_instruments(nullptr, &registry_);
  project_.set_instruments(nullptr, &registry_);
  ctr_requests_ = registry_.intern_counter("rpc.requests");
  ctr_assignments_ = registry_.intern_counter("rpc.assignments");
  ctr_no_work_ = registry_.intern_counter("rpc.no_work");
  ctr_busy_ = registry_.intern_counter("rpc.busy");
  ctr_reports_ = registry_.intern_counter("rpc.reports");
  ctr_duplicate_reports_ = registry_.intern_counter("rpc.duplicate_reports");
  ctr_status_ = registry_.intern_counter("rpc.status");
  ctr_errors_ = registry_.intern_counter("rpc.errors");
  ctr_metrics_ = registry_.intern_counter("rpc.metrics");
  ctr_diagnostics_ = registry_.intern_counter("rpc.diagnostics");
  ctr_slo_violations_ = registry_.intern_counter("slo.latency_violations");
  hist_issue_wait_ = registry_.intern_histogram("rpc.issue_wait_seconds");
  for (std::size_t c = 0; c < kRpcClassCount; ++c) {
    const std::string base =
        std::string("rpc.") + rpc_class_name(static_cast<RpcClass>(c));
    hist_queue_wait_[c] =
        registry_.intern_histogram(base + ".queue_wait_seconds");
    hist_service_[c] = registry_.intern_histogram(base + ".service_seconds");
  }
}

void GridService::process_batch(std::vector<WireRequest>& batch, double now,
                                std::vector<WireResponse>& out) {
  dequeue_time_ = now;
  std::sort(batch.begin(), batch.end(),
            [](const WireRequest& a, const WireRequest& b) {
              return merge_before(a.key(), b.key());
            });

  // The sharded engine's barrier replay, minus the control lane (wire mode
  // has no scripted control events).
  replayer_.open(now);
  for (const WireRequest& m : batch) {
    replayer_.fire_until(m.time);
    apply(m, out);
    if (std::holds_alternative<proto::RequestWork>(m.msg))
      registry_.observe(hist_issue_wait_, std::max(0.0, now - m.time));
  }
  replayer_.fire_until(now);
  now_ = std::max(now_, now);
}

WireResponse GridService::handle(const WireRequest& request) {
  std::vector<WireRequest> batch{request};
  std::vector<WireResponse> out;
  process_batch(batch, request.time, out);
  HCMD_ASSERT(out.size() == 1);
  return std::move(out.front());
}

// Out of line and non-template on purpose: this is the 1-in-N slow path.
// send<Msg>() keeps only the countdown decrement and the SLO compare
// inline; the histogram binning and tracer store live here so the
// per-reply fast path is a predicted-not-taken branch, not a call.
__attribute__((noinline)) void GridService::note_span(const WireRequest& m,
                                                      double t_read,
                                                      double t_deq,
                                                      double t_dec) {
  span_countdown_ = kSpanSampleEvery;
  const auto cls = static_cast<std::size_t>(rpc_class(m.verb()));
  registry_.observe(hist_queue_wait_[cls], t_deq - t_read);
  registry_.observe(hist_service_[cls], t_dec - t_deq);
  const double wait_us = (t_deq - t_read) * 1e6;
  tracer_.record(
      obs::TraceCat::kRpc, obs::TraceEv::kRpcDecide, t_dec, m.device(),
      static_cast<std::uint32_t>(std::min(wait_us, 4.0e9)),
      static_cast<std::uint16_t>(m.verb()));
}

template <typename Msg>
void GridService::send(const WireRequest& m, std::vector<WireResponse>& out,
                       Msg msg) {
  msg.device = m.device();
  msg.seq = m.seq();
  // Monotone re-clamp of the timeline: directly-constructed requests may
  // carry a zero t_enqueue, and the injected wall clock may race the batch
  // stamp by a cycle; the published span is always ordered.
  const double t_read = m.time;
  const double t_enq = std::max(m.t_enqueue, t_read);
  const double t_deq = std::max(dequeue_time_, t_enq);
  const double t_dec =
      std::max(clock_ ? clock_() : dequeue_time_, t_deq);

  if (config_.spans) {
    // Exact lane: the SLO ledger is a compare on stamps already in hand.
    if (std::holds_alternative<proto::RequestWork>(m.msg) &&
        t_dec - t_read > config_.slo_latency_seconds)
      registry_.add(ctr_slo_violations_);
    // Sampled lane: countdown instead of modulo (no divide per RPC); the
    // slow path resets the cursor and records.
    if (--span_countdown_ == 0) note_span(m, t_read, t_deq, t_dec);
    if constexpr (requires { msg.span; }) {
      if ((m.flags() & proto::kFlagWantSpan) != 0)
        msg.span = proto::SpanBlock{t_read, t_enq, t_deq, t_dec};
    }
  }

  out.emplace_back();
  WireResponse& r = out.back();
  r.conn = m.conn;
  r.verb = m.verb();  // the *request* verb: the write-time attribution key
  r.device = msg.device;
  r.seq = msg.seq;
  r.t_decision = t_dec;
  proto::encode(msg, r.bytes);
}

std::string GridService::default_metrics(proto::MetricsFormat format) const {
  obs::Exposition e;
  e.absorb(registry_);
  return format == proto::MetricsFormat::kJson ? e.json() : e.prometheus();
}

std::pair<std::string, std::uint64_t>
GridService::default_diagnostics_dump() {
  // Deterministic name keyed by service time: the fallback sink is for
  // direct (netless) use, where there is exactly one dumper.
  const std::string path =
      "flight-service-" +
      std::to_string(static_cast<std::uint64_t>(now_ * 1000.0)) + ".jsonl";
  std::ofstream out(path, std::ios::trunc);
  if (!out) return {"", 0};
  const std::uint64_t events =
      std::min<std::uint64_t>(tracer_.recorded(), tracer_.capacity());
  out << tracer_.jsonl();
  return {path, events};
}

void GridService::apply(const WireRequest& m, std::vector<WireResponse>& out) {
  registry_.add(ctr_requests_);

  if (m.device() >= kMaxDevices &&
      !std::holds_alternative<proto::GetStatus>(m.msg)) {
    registry_.add(ctr_errors_);
    proto::ErrorMsg e;
    e.code = proto::ErrorCode::kBadFrame;
    send(m, out, e);
    return;
  }

  std::visit(Overloaded{
      [&](const auto&) {
        // A work request or a report: the replay's one apply decides.
        std::visit(Overloaded{
            [&](const proto::Assignment& r) {
              registry_.add(ctr_assignments_);
              send(m, out, r);
            },
            [&](const proto::NoWork& r) {
              registry_.add(ctr_no_work_);
              send(m, out, r);
            },
            [&](const proto::Busy& r) {
              registry_.add(ctr_busy_);
              send(m, out, r);
            },
            [&](const proto::ReportAck& r) {
              registry_.add(ctr_reports_);
              if (r.duplicate) registry_.add(ctr_duplicate_reports_);
              send(m, out, r);
            },
            [&](const proto::ErrorMsg& r) {
              registry_.add(ctr_errors_);
              send(m, out, r);
            },
        }, replayer_.apply(m));
      },

      [&](const proto::GetStatus&) {
        registry_.add(ctr_status_);
        const ServerCounters& c = project_.counters();
        proto::Status s;
        s.results_sent = c.results_sent;
        s.results_received = c.results_received;
        s.results_valid = c.results_valid;
        s.results_invalid = c.results_invalid;
        s.results_timed_out = c.results_timed_out;
        s.workunits_completed = c.workunits_completed;
        s.workunits_total = project_.catalog().size();
        s.outage_denied = faults_.counters().outage_denied_requests;
        s.rpc_requests = registry_.total(ctr_requests_);
        s.now = std::max(now_, m.time);
        s.complete = project_.complete();
        s.uptime_seconds = time_scale_ > 0.0 ? s.now / time_scale_ : s.now;
        s.rpc_assignments = registry_.total(ctr_assignments_);
        s.rpc_no_work = registry_.total(ctr_no_work_);
        s.rpc_busy = registry_.total(ctr_busy_);
        s.rpc_reports = registry_.total(ctr_reports_);
        s.rpc_duplicate_reports = registry_.total(ctr_duplicate_reports_);
        s.rpc_status = registry_.total(ctr_status_);
        s.rpc_errors = registry_.total(ctr_errors_);
        s.policy = static_cast<std::uint8_t>(config_.server.policy);
        send(m, out, s);
      },

      [&](const proto::GetMetrics& q) {
        registry_.add(ctr_metrics_);
        proto::Metrics reply;
        reply.format = q.format;
        reply.text = metrics_provider_ ? metrics_provider_(q.format)
                                       : default_metrics(q.format);
        // Keep the frame under the protocol cap: verb + fixed fields + the
        // length-prefixed text must fit kMaxFrameBytes.
        constexpr std::size_t kHeadroom = 64;
        if (reply.text.size() > proto::kMaxFrameBytes - kHeadroom)
          reply.text.resize(proto::kMaxFrameBytes - kHeadroom);
        send(m, out, reply);
      },

      [&](const proto::DumpDiagnostics&) {
        registry_.add(ctr_diagnostics_);
        const std::pair<std::string, std::uint64_t> dumped =
            diagnostics_sink_ ? diagnostics_sink_()
                              : default_diagnostics_dump();
        proto::DiagnosticsAck ack;
        ack.events = dumped.second;
        ack.path = dumped.first;
        send(m, out, ack);
      },
  }, m.msg);
}

std::vector<packaging::Workunit> synthetic_catalog(std::uint32_t count,
                                                   double target_hours) {
  std::vector<packaging::Workunit> catalog;
  catalog.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    packaging::Workunit wu;
    wu.id = i;
    wu.receptor = static_cast<std::uint16_t>(i % 168);
    wu.ligand = static_cast<std::uint16_t>((i / 168) % 168);
    wu.isep_begin = 0;
    wu.isep_end = 64;
    // Deterministic ±25 % spread around the target cost, cycling every 16
    // workunits — enough heterogeneity to exercise validation paths without
    // paying for protein generation + calibration at server start.
    const double spread =
        0.75 + 0.5 * static_cast<double>(i % 16) / 15.0;
    wu.reference_seconds = target_hours * 3600.0 * spread;
    catalog.push_back(wu);
  }
  return catalog;
}

}  // namespace hcmd::server
