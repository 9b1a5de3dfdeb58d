// End-to-end over real sockets: GridServer + WireClient on localhost.
// Covers the RPC round trips, reply routing under pipelining, duplicate
// returns replayed over the wire, outage refusal with the fleet backoff law,
// framing-error connection teardown, and a concurrent-client smoke.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "client/loadgen.hpp"
#include "client/wire.hpp"
#include "faults/plan.hpp"
#include "faults/schedule.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcmd;
using namespace hcmd::server;
using hcmd::client::WireClient;
using hcmd::client::WireReply;
namespace proto = hcmd::server::proto;

ServiceConfig quorum1_config() {
  ServiceConfig config;
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  return config;
}

proto::RequestWork request_work(std::uint32_t device, std::uint64_t seq) {
  proto::RequestWork m;
  m.device = device;
  m.seq = seq;
  return m;
}

proto::ReportResult report_for(const proto::Assignment& a, std::uint64_t seq) {
  proto::ReportResult m;
  m.device = a.device;
  m.seq = seq;
  m.result_id = a.result_id;
  m.reference_seconds = a.reference_seconds;
  m.reported_runtime = a.reference_seconds / 0.5;
  return m;
}

class WireTest : public ::testing::Test {
 protected:
  void start_server(std::size_t workunits, ServiceConfig config,
                    double time_scale = 1.0) {
    NetOptions net;
    net.time_scale = time_scale;
    start_server_with(workunits, std::move(config), net);
  }

  void start_server_with(std::size_t workunits, ServiceConfig config,
                         NetOptions net) {
    net.port = 0;  // ephemeral
    net.workers = 2;
    server_ = std::make_unique<GridServer>(
        synthetic_catalog(workunits, 4.0), std::move(config), net);
    server_->start();
  }

  void TearDown() override {
    if (server_) server_->stop();
  }

  std::unique_ptr<GridServer> server_;
};

TEST_F(WireTest, RequestReportStatusRoundTrip) {
  start_server(8, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  c.queue(request_work(0, 1));
  c.flush();
  const WireReply r1 = c.recv_reply();
  ASSERT_EQ(r1.verb, proto::Verb::kAssignment);
  EXPECT_EQ(r1.device, 0u);
  EXPECT_EQ(r1.seq, 1u);
  EXPECT_GT(r1.get<proto::Assignment>().reference_seconds, 0.0);

  c.queue(report_for(r1.get<proto::Assignment>(), 2));
  c.flush();
  const WireReply r2 = c.recv_reply();
  ASSERT_EQ(r2.verb, proto::Verb::kReportAck);
  EXPECT_EQ(r2.get<proto::ReportAck>().state, ResultState::kValid);
  EXPECT_FALSE(r2.get<proto::ReportAck>().duplicate);

  proto::GetStatus q;
  q.device = 0;
  q.seq = 3;
  c.queue(q);
  c.flush();
  const WireReply r3 = c.recv_reply();
  ASSERT_EQ(r3.verb, proto::Verb::kStatus);
  const proto::Status& s3 = r3.get<proto::Status>();
  EXPECT_EQ(s3.results_sent, 1u);
  EXPECT_EQ(s3.results_received, 1u);
  EXPECT_EQ(s3.workunits_completed, 1u);
  EXPECT_EQ(s3.workunits_total, 8u);

  server_->stop();
  const GridServer::Stats s = server_->stats();
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_GE(s.frames_in, 3u);
  EXPECT_GE(s.frames_out, 3u);
  EXPECT_EQ(s.protocol_errors, 0u);
}

// Many pipelined devices on one connection: the service answers in merge
// order, not send order, so the echoed (device, seq) routing must let the
// client match every reply; all assignments must be distinct workunits.
TEST_F(WireTest, PipelinedRepliesCarryRouting) {
  constexpr std::uint32_t kDevices = 32;
  start_server(64, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  for (std::uint32_t d = 0; d < kDevices; ++d)
    c.queue(request_work(d, 100 + d));
  c.flush();

  std::set<std::uint32_t> devices_seen;
  std::set<std::uint64_t> workunits_seen;
  for (std::uint32_t i = 0; i < kDevices; ++i) {
    const WireReply r = c.recv_reply();
    ASSERT_EQ(r.verb, proto::Verb::kAssignment);
    EXPECT_EQ(r.seq, 100u + r.device);
    devices_seen.insert(r.device);
    workunits_seen.insert(r.get<proto::Assignment>().workunit);
  }
  EXPECT_EQ(devices_seen.size(), kDevices);
  EXPECT_EQ(workunits_seen.size(), kDevices);
}

// Satellite: a return replayed over the wire (client resends after a lost
// ack) must come back duplicate=true and leave the server's tallies alone.
TEST_F(WireTest, DuplicateReportOverSocketIsIdempotent) {
  start_server(4, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  c.queue(request_work(0, 1));
  c.flush();
  const WireReply a = c.recv_reply();
  ASSERT_EQ(a.verb, proto::Verb::kAssignment);

  const proto::ReportResult rep = report_for(a.get<proto::Assignment>(), 2);
  c.queue(rep);
  c.flush();
  const WireReply ack1 = c.recv_reply();
  ASSERT_EQ(ack1.verb, proto::Verb::kReportAck);
  EXPECT_FALSE(ack1.get<proto::ReportAck>().duplicate);
  EXPECT_EQ(ack1.get<proto::ReportAck>().state, ResultState::kValid);

  proto::ReportResult replay = rep;
  replay.seq = 3;
  c.queue(replay);
  c.flush();
  const WireReply ack2 = c.recv_reply();
  ASSERT_EQ(ack2.verb, proto::Verb::kReportAck);
  EXPECT_TRUE(ack2.get<proto::ReportAck>().duplicate);
  EXPECT_EQ(ack2.get<proto::ReportAck>().state, ResultState::kValid);

  proto::GetStatus q;
  q.device = 0;
  q.seq = 4;
  c.queue(q);
  c.flush();
  const WireReply st = c.recv_reply();
  ASSERT_EQ(st.verb, proto::Verb::kStatus);
  const proto::Status& status = st.get<proto::Status>();
  EXPECT_EQ(status.results_received, 1u);
  EXPECT_EQ(status.results_valid, 1u);
  EXPECT_EQ(status.workunits_completed, 1u);
}

// Satellite: an outage window refuses issue over the wire exactly as
// in-process — explicit Busy carrying the remaining window — and the
// client-side schedule that refusal drives is the fleet backoff law:
// delay_k = backoff_delay(k, device_rng) for k = 0, 1, 2, ... until the
// server answers, then the attempt counter resets.
TEST_F(WireTest, OutageBusyMatchesFleetBackoffSchedule) {
  // Outage spans service seconds [0, 40); at 40x time scale that is one
  // wall second, so the client sees Busy for ~1 s and then gets work.
  constexpr double kOutageEnd = 40.0;
  constexpr double kTimeScale = 40.0;
  ServiceConfig config = quorum1_config();
  faults::OutageWindow w;
  w.begin_seconds = 0.0;
  w.end_seconds = kOutageEnd;
  config.faults.outages.push_back(w);
  const faults::FaultPlan plan = config.faults;
  start_server(8, config, kTimeScale);

  // The law both the fleet simulation and the loadgen apply, with a replica
  // device RNG so the expected delay sequence is exact.
  const faults::FaultSchedule law(plan, util::Rng(99).fork("faults"));
  util::Rng device_rng = util::Rng(7).fork("device").fork("wire");
  util::Rng replica_rng = util::Rng(7).fork("device").fork("wire");

  WireClient c("127.0.0.1", server_->port());
  std::vector<double> schedule;       // delays the client computed
  std::vector<double> retry_afters;   // what the server told it
  std::uint32_t attempt = 0;
  std::uint64_t seq = 1;
  WireReply last;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (true) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never came back from the outage";
    c.queue(request_work(3, seq++));
    c.flush();
    last = c.recv_reply();
    if (last.verb != proto::Verb::kBusy) break;
    retry_afters.push_back(last.get<proto::Busy>().retry_after);
    // Fleet law: current attempt indexes the delay, then increments.
    schedule.push_back(law.backoff_delay(attempt, device_rng));
    ++attempt;
    // Don't wait the (service-time) delay in wall time — the schedule
    // itself is the artefact under test; just re-poll quickly.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(last.verb, proto::Verb::kAssignment) << "expected work after outage";
  ASSERT_GE(retry_afters.size(), 1u) << "client never saw the outage";

  // Every refusal carried the true remaining window.
  for (const double ra : retry_afters) {
    EXPECT_GT(ra, 0.0);
    EXPECT_LE(ra, kOutageEnd);
  }
  // Later refusals are closer to the window end than earlier ones.
  EXPECT_LT(retry_afters.back(), retry_afters.front() + 1e-9);

  // The client's schedule equals the simulated fleet's, draw for draw.
  ASSERT_EQ(schedule.size(), retry_afters.size());
  for (std::size_t k = 0; k < schedule.size(); ++k) {
    const double expected =
        law.backoff_delay(static_cast<std::uint32_t>(k), replica_rng);
    EXPECT_DOUBLE_EQ(schedule[k], expected) << "attempt " << k;
    EXPECT_GE(schedule[k], 0.75 * plan.backoff_initial_seconds);
  }

  // The refusals moved the same counter the in-process denial path moves.
  EXPECT_GE(server_->service().registry().total("fault.outage_denied"),
            retry_afters.size());
}

// A broken length prefix desynchronises the stream: the server must drop
// the connection, and count the event.
TEST_F(WireTest, BadLengthPrefixClosesConnection) {
  start_server(4, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  const std::uint8_t zeros[4] = {0, 0, 0, 0};  // length 0 is never legal
  ASSERT_EQ(::send(c.fd(), zeros, sizeof(zeros), MSG_NOSIGNAL), 4);
  EXPECT_THROW(c.recv_reply(), ConfigError);  // server closed the stream

  // A fresh connection still works: the error was scoped to one peer.
  WireClient c2("127.0.0.1", server_->port());
  c2.queue(request_work(0, 1));
  c2.flush();
  EXPECT_EQ(c2.recv_reply().verb, proto::Verb::kAssignment);

  server_->stop();
  EXPECT_GE(server_->stats().protocol_errors, 1u);
  EXPECT_GE(server_->stats().closed, 1u);
}

// A response verb sent by a client is a payload-level error: the stream
// survives with a kError reply rather than a teardown.
TEST_F(WireTest, ResponseVerbGetsErrorReplyAndStreamSurvives) {
  start_server(4, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  std::vector<std::uint8_t> frame;
  proto::Busy bogus;
  bogus.device = 1;
  bogus.seq = 1;
  proto::encode(bogus, frame);
  ASSERT_EQ(::send(c.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  const WireReply err = c.recv_reply();
  ASSERT_EQ(err.verb, proto::Verb::kError);

  c.queue(request_work(1, 2));
  c.flush();
  EXPECT_EQ(c.recv_reply().verb, proto::Verb::kAssignment);
}

// Several clients hammering the server concurrently: every workunit issued
// exactly once, every report lands, totals add up.
TEST_F(WireTest, ConcurrentClientsCompleteDisjointWork) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPerThread = 50;
  start_server(kThreads * kPerThread, quorum1_config());

  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      WireClient c("127.0.0.1", server_->port());
      std::uint64_t seq = 1;
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        c.queue(request_work(t, seq++));
        c.flush();
        const WireReply a = c.recv_reply();
        ASSERT_EQ(a.verb, proto::Verb::kAssignment);
        c.queue(report_for(a.get<proto::Assignment>(), seq++));
        c.flush();
        ASSERT_EQ(c.recv_reply().verb, proto::Verb::kReportAck);
      }
    });
  }
  for (auto& th : threads) th.join();

  WireClient c("127.0.0.1", server_->port());
  proto::GetStatus q;
  q.device = 0;
  q.seq = 1;
  c.queue(q);
  c.flush();
  const WireReply st = c.recv_reply();
  ASSERT_EQ(st.verb, proto::Verb::kStatus);
  const proto::Status& status = st.get<proto::Status>();
  EXPECT_EQ(status.results_sent, kThreads * kPerThread);
  EXPECT_EQ(status.results_received, kThreads * kPerThread);
  EXPECT_EQ(status.workunits_completed, kThreads * kPerThread);
  EXPECT_TRUE(status.complete);
}

// The load generator end-to-end: a small farm over real sockets completes
// the whole catalogue and reports sane latency numbers.
TEST_F(WireTest, LoadgenDrainsCatalog) {
  start_server(512, quorum1_config());

  client::LoadgenOptions opts;
  opts.host = "127.0.0.1";
  opts.port = server_->port();
  opts.devices = 32;
  opts.connections = 2;
  opts.duration_seconds = 20.0;  // upper bound; exits early when drained
  const client::LoadgenReport report = client::run_loadgen(opts);

  // The endgame can over-issue: once the unsent pool drains, idle devices
  // get redundant copies of in-flight workunits, so assignments >= catalog.
  EXPECT_GE(report.assignments, 512u);
  EXPECT_GE(report.acks, 512u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GT(report.requests_per_sec, 0.0);
  // Issue latency covers every scheduler response: assignments, end-game
  // NoWork polls and (here absent) Busy refusals.
  EXPECT_EQ(report.issue_latency.total(),
            report.assignments + report.no_work + report.busy);
  EXPECT_EQ(report.report_latency.total(), report.acks);
  EXPECT_TRUE(report.server_status.complete);
  EXPECT_EQ(report.server_status.workunits_completed, 512u);

  const std::string json = client::loadgen_json(opts, report);
  EXPECT_NE(json.find("\"requests_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"loadgen\""), std::string::npos);
  // Spans default on: every scheduler/ack reply carried an echo, and the
  // JSON surfaces the server_spans stage breakdown.
  EXPECT_EQ(report.span_replies, report.replies);
  EXPECT_EQ(report.span_total.total(), report.replies);
  EXPECT_NE(json.find("\"server_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_GT(report.server_status.uptime_seconds, 0.0);
  EXPECT_GE(report.server_status.rpc_assignments, 512u);
}

// The farm's backoff path: an outage over the first two service hours
// refuses every device's first requests, each refused device waits out its
// backoff on the idle list, and the catalogue completes after the window.
TEST_F(WireTest, LoadgenBacksOffThroughAnOutage) {
  constexpr double kTimeScale = 7200.0;  // the window lasts 1 wall second
  ServiceConfig config = quorum1_config();
  faults::OutageWindow w;
  w.begin_seconds = 0.0;
  w.end_seconds = 7200.0;
  config.faults.outages.push_back(w);
  start_server(4096, config, kTimeScale);

  client::LoadgenOptions opts;
  opts.port = server_->port();
  opts.devices = 1024;
  opts.connections = 1;
  opts.duration_seconds = 30.0;  // upper bound; exits early when drained
  opts.time_scale = kTimeScale;
  opts.faults = config.faults;
  const client::LoadgenReport report = client::run_loadgen(opts);

  EXPECT_GT(report.busy, 0u);
  EXPECT_GT(report.backoff_waits, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_TRUE(report.server_status.complete);
  EXPECT_EQ(report.server_status.workunits_completed, 4096u);
  EXPECT_EQ(report.server_status.outage_denied, report.busy);
  // The window closes before any work is issued, so no report is refused
  // and every Busy answered a work request.
  EXPECT_EQ(report.deferred_uploads, 0u);
  EXPECT_EQ(report.issue_latency.total(),
            report.assignments + report.no_work + report.busy);
}

TEST_F(WireTest, SpanEchoOverTheWire) {
  start_server(8, quorum1_config());
  WireClient c("127.0.0.1", server_->port());

  // Flagless request: the 1.0 frame comes back, no tail.
  c.queue(request_work(0, 1));
  c.flush();
  const WireReply plain = c.recv_reply();
  ASSERT_EQ(plain.verb, proto::Verb::kAssignment);
  EXPECT_FALSE(plain.span().has_value());

  // Flagged request: a monotone server-side timeline in service seconds.
  proto::RequestWork m = request_work(1, 2);
  m.flags = proto::kFlagWantSpan;
  c.queue(m);
  c.flush();
  const WireReply r = c.recv_reply();
  ASSERT_EQ(r.verb, proto::Verb::kAssignment);
  const std::optional<proto::SpanBlock> span = r.span();
  ASSERT_TRUE(span.has_value());
  EXPECT_GE(span->t_enqueue, span->t_read);
  EXPECT_GE(span->t_dequeue, span->t_enqueue);
  EXPECT_GE(span->t_decision, span->t_dequeue);
  EXPECT_GE(span->t_read, 0.0);
}

TEST_F(WireTest, GetMetricsOverTheWire) {
  start_server(8, quorum1_config());
  WireClient c("127.0.0.1", server_->port());
  c.queue(request_work(0, 1));
  c.flush();
  ASSERT_EQ(c.recv_reply().verb, proto::Verb::kAssignment);

  proto::GetMetrics q;
  q.device = 0;
  q.seq = 2;
  q.format = proto::MetricsFormat::kPrometheus;
  c.queue(q);
  c.flush();
  const WireReply r = c.recv_reply();
  ASSERT_EQ(r.verb, proto::Verb::kMetrics);
  const proto::Metrics& prom = r.get<proto::Metrics>();
  EXPECT_EQ(prom.format, proto::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.text.find("hcmd_rpc_requests_total"), std::string::npos);
  EXPECT_NE(prom.text.find("hcmd_net_frames_in_total"), std::string::npos);
  EXPECT_LE(prom.text.size() + 64, proto::kMaxFrameBytes);

  q.seq = 3;
  q.format = proto::MetricsFormat::kJson;
  c.queue(q);
  c.flush();
  const WireReply j = c.recv_reply();
  ASSERT_EQ(j.verb, proto::Verb::kMetrics);
  EXPECT_NE(j.get<proto::Metrics>().text.find("\"hcmd-metrics-snapshot\""),
            std::string::npos);
}

TEST_F(WireTest, DumpDiagnosticsOverTheWire) {
  NetOptions net;
  net.flight_prefix = "/tmp/hcmd-wiretest-flight";
  start_server_with(8, quorum1_config(), net);
  WireClient c("127.0.0.1", server_->port());
  c.queue(request_work(0, 1));
  c.flush();
  ASSERT_EQ(c.recv_reply().verb, proto::Verb::kAssignment);

  proto::DumpDiagnostics q;
  q.device = 0;
  q.seq = 2;
  c.queue(q);
  c.flush();
  const WireReply r = c.recv_reply();
  ASSERT_EQ(r.verb, proto::Verb::kDiagnosticsAck);
  const proto::DiagnosticsAck& ack = r.get<proto::DiagnosticsAck>();
  EXPECT_EQ(ack.device, 0u);
  EXPECT_EQ(ack.seq, 2u);
  ASSERT_FALSE(ack.path.empty());
  EXPECT_EQ(ack.path.rfind("/tmp/hcmd-wiretest-flight-", 0), 0u);
  EXPECT_GT(ack.events, 0u);

  // The dump is a readable JSONL file with at least one rpc event.
  std::ifstream in(ack.path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_rpc = false;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"cat\":\"rpc\"") != std::string::npos) saw_rpc = true;
  }
  EXPECT_EQ(lines, ack.events);
  EXPECT_TRUE(saw_rpc);
  in.close();
  std::remove(ack.path.c_str());
}

TEST_F(WireTest, HttpMetricsListenerServesSnapshots) {
  NetOptions net;
  net.metrics_port = 0;      // ephemeral
  net.snapshot_period = 0.05;
  start_server_with(8, quorum1_config(), net);
  ASSERT_NE(server_->metrics_port(), 0u);

  WireClient c("127.0.0.1", server_->port());
  c.queue(request_work(0, 1));
  c.flush();
  ASSERT_EQ(c.recv_reply().verb, proto::Verb::kAssignment);

  // One-shot HTTP/1.0 GET against the metrics listener.
  const auto http_get = [&](const std::string& target) {
    WireClient raw("127.0.0.1", server_->metrics_port());
    const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
    ::send(raw.fd(), req.data(), req.size(), MSG_NOSIGNAL);
    std::string response;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(raw.fd(), buf, sizeof buf, 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
    return response;
  };

  // The first snapshot fires one period after start; poll until it lands.
  std::string response;
  for (int i = 0; i < 100; ++i) {
    response = http_get("/metrics");
    if (response.find("hcmd_rpc_requests_total") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("hcmd_rpc_requests_total"), std::string::npos);

  const std::string json = http_get("/metrics.json");
  EXPECT_NE(json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json.find("hcmd-metrics-snapshot"), std::string::npos);

  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404"), std::string::npos);
}

}  // namespace
