// GridService: wire-mode RPC semantics over the in-process ProjectServer —
// assignment/report round trips, duplicate-report idempotency (the full
// ServerCounters snapshot is pinned), refusal of a report from a device the
// result was not issued to, outage-window refusal with retry-after,
// deadline deferral through outages, and merge-order determinism.
#include "server/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>
#include <variant>
#include <vector>

#include "server/protocol.hpp"
#include "util/error.hpp"

namespace {

using namespace hcmd::server;
namespace proto = hcmd::server::proto;

ServiceConfig quorum1_config() {
  ServiceConfig config;
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  return config;
}

/// A request as a net worker hands it over: decoded, stamped on arrival.
WireRequest at(double t, proto::Request msg) {
  WireRequest m;
  m.time = t;
  m.msg = std::move(msg);
  return m;
}

WireRequest request_work(std::uint32_t device, std::uint64_t seq, double t,
                         std::uint8_t flags = 0) {
  proto::RequestWork r;
  r.device = device;
  r.seq = seq;
  r.flags = flags;
  return at(t, r);
}

WireRequest report(std::uint32_t device, std::uint64_t seq, double t,
                   const proto::Assignment& a) {
  proto::ReportResult r;
  r.device = device;
  r.seq = seq;
  r.result_id = a.result_id;
  r.reported_runtime = a.reference_seconds / 0.25;
  r.reference_seconds = a.reference_seconds;
  return at(t, r);
}

proto::Frame sole_frame(const WireResponse& r) {
  std::size_t off = 0;
  const std::optional<proto::Frame> f = proto::try_extract(r.bytes, off);
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(off, r.bytes.size());
  return *f;
}

bool counters_equal(const ServerCounters& a, const ServerCounters& b) {
  return std::memcmp(&a, &b, sizeof(ServerCounters)) == 0;
}

TEST(GridService, AssignmentRoundTripEchoesRouting) {
  GridService svc(synthetic_catalog(16, 4.0), quorum1_config());
  const WireResponse r = svc.handle(request_work(3, 17, 5.0));
  const auto a = proto::decode<proto::Assignment>(sole_frame(r));
  EXPECT_EQ(a.device, 3u);
  EXPECT_EQ(a.seq, 17u);
  EXPECT_EQ(a.workunit, 0u);  // catalogue order
  EXPECT_GT(a.reference_seconds, 0.0);
  EXPECT_GT(a.deadline, 5.0);
  EXPECT_EQ(svc.deadlines_armed(), 1u);
  EXPECT_EQ(svc.registry().total("rpc.assignments"), 1u);
  EXPECT_EQ(svc.rpc_requests(), 1u);
}

TEST(GridService, ReportCompletesWorkunitAndDisarmsDeadline) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));
  ASSERT_EQ(svc.deadlines_armed(), 1u);

  const WireResponse r = svc.handle(report(0, 2, 100.0, a));
  const auto ack = proto::decode<proto::ReportAck>(sole_frame(r));
  EXPECT_EQ(ack.state, ResultState::kValid);
  EXPECT_FALSE(ack.duplicate);
  EXPECT_EQ(svc.deadlines_armed(), 0u);
  EXPECT_EQ(svc.project().counters().workunits_completed, 1u);
}

// Satellite: a replayed report_result (network retry after a lost ack) must
// not move ANY server state — the whole counters struct is pinned.
TEST(GridService, DuplicateReportIsIdempotent) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));

  const WireRequest first = report(0, 2, 100.0, a);
  const auto ack1 =
      proto::decode<proto::ReportAck>(sole_frame(svc.handle(first)));
  EXPECT_EQ(ack1.state, ResultState::kValid);
  EXPECT_FALSE(ack1.duplicate);

  const ServerCounters snapshot = svc.project().counters();
  const std::uint64_t reports_before = svc.registry().total("rpc.reports");

  // The client re-sends the identical return with a fresh seq (its ack got
  // lost). The ack must carry the terminal state and the duplicate bit, and
  // the server must not double-count anything.
  const auto ack2 = proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 3, 150.0, a))));
  EXPECT_EQ(ack2.state, ResultState::kValid);
  EXPECT_TRUE(ack2.duplicate);
  EXPECT_TRUE(counters_equal(snapshot, svc.project().counters()))
      << "a replayed return moved a server counter";
  EXPECT_EQ(svc.registry().total("rpc.duplicate_reports"), 1u);
  EXPECT_EQ(svc.registry().total("rpc.reports"), reports_before + 1);

  // And a third replay is just as inert.
  const auto ack3 = proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 4, 200.0, a))));
  EXPECT_TRUE(ack3.duplicate);
  EXPECT_TRUE(counters_equal(snapshot, svc.project().counters()));
}

// Quorum-2 regime: the first clean result parks in kPendingValidation; a
// replay while pending must not be treated as the quorum partner.
TEST(GridService, DuplicateReportCannotFillItsOwnQuorum) {
  ServiceConfig config;  // default: quorum-2 early campaign
  GridService svc(synthetic_catalog(4, 4.0), config);
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));

  const WireRequest first = report(0, 2, 100.0, a);
  const auto ack1 =
      proto::decode<proto::ReportAck>(sole_frame(svc.handle(first)));
  EXPECT_EQ(ack1.state, ResultState::kPendingValidation);

  const ServerCounters snapshot = svc.project().counters();
  EXPECT_EQ(snapshot.results_pending, 1u);
  EXPECT_EQ(snapshot.workunits_completed, 0u);

  const auto ack2 = proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 3, 150.0, a))));
  EXPECT_TRUE(ack2.duplicate);
  EXPECT_EQ(ack2.state, ResultState::kPendingValidation);
  EXPECT_TRUE(counters_equal(snapshot, svc.project().counters()))
      << "a replay filled its own quorum";
}

// Only the assignee may return a result. A silently corrupt return from
// another device must not complete (and corrupt) the workunit: it is
// refused like an unknown result and moves no counter and no deadline.
TEST(GridService, ReportFromAnotherDeviceIsRejected) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));
  ASSERT_EQ(svc.deadlines_armed(), 1u);
  const ServerCounters snapshot = svc.project().counters();

  WireRequest foreign = report(1, 1, 100.0, a);
  std::get<proto::ReportResult>(foreign.msg).silent_error = true;
  const auto e =
      proto::decode<proto::ErrorMsg>(sole_frame(svc.handle(foreign)));
  EXPECT_EQ(e.device, 1u);
  EXPECT_EQ(e.code, proto::ErrorCode::kUnknownResult);
  EXPECT_TRUE(counters_equal(snapshot, svc.project().counters()))
      << "a foreign report moved a server counter";
  EXPECT_EQ(svc.deadlines_armed(), 1u);
  EXPECT_EQ(svc.registry().total("rpc.errors"), 1u);
  EXPECT_EQ(svc.registry().total("rpc.reports"), 0u);

  // The assignee's own return still validates and retires the deadline.
  const auto ack = proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 2, 110.0, a))));
  EXPECT_EQ(ack.state, ResultState::kValid);
  EXPECT_FALSE(ack.duplicate);
  EXPECT_EQ(svc.project().counters().workunits_completed, 1u);
  EXPECT_EQ(svc.project().counters().corrupt_assimilated, 0u);
  EXPECT_EQ(svc.deadlines_armed(), 0u);
}

// A WireRequest holds a proto::Request, so an unknown or response verb
// never reaches the service: the net worker answers it with kUnknownVerb
// (WireTest.ResponseVerbGetsErrorReplyAndStreamSurvives).
TEST(GridService, UnknownResultAndVerbAndDeviceGetErrors) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());

  // Report for a result id never issued.
  proto::ReportResult unknown;
  unknown.device = 1;
  unknown.seq = 1;
  unknown.result_id = 999;
  const auto e1 = proto::decode<proto::ErrorMsg>(
      sole_frame(svc.handle(at(0.0, unknown))));
  EXPECT_EQ(e1.code, proto::ErrorCode::kUnknownResult);

  // A device id past the ceiling must not grow server state.
  const auto e2 = proto::decode<proto::ErrorMsg>(
      sole_frame(svc.handle(request_work(kMaxDevices, 1, 0.0))));
  EXPECT_EQ(e2.code, proto::ErrorCode::kBadFrame);
  EXPECT_EQ(svc.project().counters().results_sent, 0u);
  EXPECT_EQ(svc.registry().total("rpc.errors"), 2u);
}

// Satellite: outage windows refuse issue over the wire exactly as
// in-process — explicit Busy with the window's remaining time, the same
// outage_denied counter the nullopt path bumps, and reports refused too.
TEST(GridService, OutageWindowRefusesIssueWithRetryAfter) {
  ServiceConfig config = quorum1_config();
  hcmd::faults::OutageWindow w;
  w.begin_seconds = 100.0;
  w.end_seconds = 250.0;
  config.faults.outages.push_back(w);
  GridService svc(synthetic_catalog(8, 4.0), config);

  // Before the window: work flows.
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 50.0))));

  // Inside the window: issue refused with the exact remaining time.
  const auto busy = proto::decode<proto::Busy>(
      sole_frame(svc.handle(request_work(1, 1, 150.0))));
  EXPECT_EQ(busy.device, 1u);
  EXPECT_DOUBLE_EQ(busy.retry_after, 100.0);  // 250 - 150
  EXPECT_EQ(svc.fault_schedule().counters().outage_denied_requests, 1u);
  EXPECT_EQ(svc.registry().total("fault.outage_denied"), 1u);
  EXPECT_EQ(svc.registry().total("rpc.busy"), 1u);
  EXPECT_EQ(svc.project().counters().results_sent, 1u);  // nothing issued

  // Returns are refused too (the client buffers the upload).
  const auto busy2 = proto::decode<proto::Busy>(
      sole_frame(svc.handle(report(0, 2, 160.0, a))));
  EXPECT_DOUBLE_EQ(busy2.retry_after, 90.0);
  EXPECT_EQ(svc.project().counters().results_received, 0u);

  // After the window both flow again.
  const auto ack = proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 3, 260.0, a))));
  EXPECT_EQ(ack.state, ResultState::kValid);
  proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(1, 2, 261.0))));
}

// Deadline ticks falling inside an outage defer to the window's end — the
// same transitioner policy the epoch-barrier engine applies.
TEST(GridService, DeadlineTickDefersThroughOutage) {
  ServiceConfig config = quorum1_config();
  config.server.deadline = 100.0;  // assignment at t=0 -> deadline t=100
  hcmd::faults::OutageWindow w;
  w.begin_seconds = 50.0;
  w.end_seconds = 300.0;
  config.faults.outages.push_back(w);
  GridService svc(synthetic_catalog(4, 4.0), config);

  proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));
  ASSERT_EQ(svc.deadlines_armed(), 1u);

  // Drive time past the nominal deadline but inside the outage: the tick
  // must defer, not fire.
  std::vector<WireRequest> empty;
  std::vector<WireResponse> out;
  svc.process_batch(empty, 150.0, out);
  EXPECT_EQ(svc.project().counters().results_timed_out, 0u);
  EXPECT_EQ(svc.fault_schedule().counters().deadline_deferrals, 1u);
  EXPECT_EQ(svc.deadlines_armed(), 1u);  // re-armed at the window end

  // Past the window end the deferred tick fires and the workunit re-issues.
  svc.process_batch(empty, 301.0, out);
  EXPECT_EQ(svc.project().counters().results_timed_out, 1u);
  EXPECT_EQ(svc.deadlines_armed(), 0u);
}

// Two network workers' arrival stamps can cross a drain boundary, so a
// batch may carry a request stamped before the previous batch's last
// issue. The server sends it no earlier than that issue: its deadline is
// the same, and result-id order stays deadline order.
TEST(GridService, RequestStampedBeforeThePreviousIssueSharesItsDeadline) {
  ServiceConfig config = quorum1_config();
  config.server.deadline = 100.0;
  GridService svc(synthetic_catalog(4, 4.0), config);
  const auto first = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 10.0))));

  std::vector<WireRequest> batch{request_work(1, 1, 9.5)};
  std::vector<WireResponse> out;
  svc.process_batch(batch, 10.5, out);
  ASSERT_EQ(out.size(), 1u);
  const auto second = proto::decode<proto::Assignment>(sole_frame(out[0]));
  EXPECT_EQ(second.result_id, first.result_id + 1);
  EXPECT_EQ(second.deadline, first.deadline);
  EXPECT_EQ(second.deadline, 110.0);

  // Both ticks fire in the batch that covers 110, first's first: the
  // timed-out workunits queue for re-issue in tick order.
  std::vector<WireRequest> empty;
  svc.process_batch(empty, 109.9, out);
  EXPECT_EQ(svc.project().counters().results_timed_out, 0u);
  svc.process_batch(empty, 110.0, out);
  EXPECT_EQ(svc.project().counters().results_timed_out, 2u);
  EXPECT_EQ(svc.deadlines_armed(), 0u);
  const auto reissue_a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(2, 1, 111.0))));
  const auto reissue_b = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(3, 1, 112.0))));
  EXPECT_EQ(reissue_a.workunit, first.workunit);
  EXPECT_EQ(reissue_b.workunit, second.workunit);
}

// The service replays a batch in (time, lane, device, seq) order: any
// arrival interleaving of the same stamped traffic produces the identical
// issue sequence.
TEST(GridService, BatchReplayIsArrivalOrderInvariant) {
  auto run = [](unsigned shuffle_seed) {
    GridService svc(synthetic_catalog(64, 4.0), quorum1_config());
    std::vector<WireRequest> batch;
    for (std::uint32_t d = 0; d < 8; ++d)
      for (std::uint64_t s = 1; s <= 4; ++s)
        batch.push_back(request_work(d, s, 10.0 + static_cast<double>(s)));
    std::shuffle(batch.begin(), batch.end(), std::mt19937(shuffle_seed));
    std::vector<WireResponse> out;
    svc.process_batch(batch, 20.0, out);
    // Map (device, seq) -> workunit id.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> issued;
    for (const WireResponse& r : out) {
      std::size_t off = 0;
      const proto::Frame f = *proto::try_extract(r.bytes, off);
      const auto a = proto::decode<proto::Assignment>(f);
      issued.emplace_back((static_cast<std::uint64_t>(a.device) << 32) | a.seq,
                          a.workunit);
    }
    std::sort(issued.begin(), issued.end());
    return issued;
  };

  const auto a = run(1);
  const auto b = run(2);
  const auto c = run(3);
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(GridService, StatusReportsCountersAndProgress) {
  GridService svc(synthetic_catalog(2, 4.0), quorum1_config());
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));
  proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 2, 10.0, a))));

  proto::GetStatus q;
  q.seq = 3;
  const auto s =
      proto::decode<proto::Status>(sole_frame(svc.handle(at(20.0, q))));
  EXPECT_EQ(s.results_sent, 1u);
  EXPECT_EQ(s.results_received, 1u);
  EXPECT_EQ(s.results_valid, 1u);
  EXPECT_EQ(s.workunits_completed, 1u);
  EXPECT_EQ(s.workunits_total, 2u);
  EXPECT_EQ(s.rpc_requests, 3u);
  EXPECT_FALSE(s.complete);
}

TEST(GridService, RejectsBadConfig) {
  ServiceConfig slo = quorum1_config();
  slo.slo_latency_seconds = 0.0;
  EXPECT_THROW(GridService(synthetic_catalog(2, 4.0), slo),
               hcmd::ConfigError);
}

TEST(GridService, SpanEchoFollowsTheRequestFlag) {
  GridService svc(synthetic_catalog(8, 4.0), quorum1_config());

  // Without the flag: no tail, a 1.0 client sees the 1.0 frame.
  const auto plain = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 5.0))));
  EXPECT_FALSE(plain.span.has_value());

  // With the flag: a monotone server-side timeline comes back.
  WireRequest m = request_work(1, 2, 6.0, proto::kFlagWantSpan);
  m.t_enqueue = 6.0009765625;
  const auto a =
      proto::decode<proto::Assignment>(sole_frame(svc.handle(m)));
  ASSERT_TRUE(a.span.has_value());
  EXPECT_EQ(a.span->t_read, 6.0);
  EXPECT_EQ(a.span->t_enqueue, 6.0009765625);
  EXPECT_GE(a.span->t_dequeue, a.span->t_enqueue);
  EXPECT_GE(a.span->t_decision, a.span->t_dequeue);

  // The stage histograms saw the request-work class: the first send
  // always records, the second falls between samples.
  const auto* queue_wait =
      svc.registry().histogram(
          svc.registry().find("rpc.request_work.queue_wait_seconds"));
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->total(), 1u);
}

TEST(GridService, SpanSamplingThinsStatisticsButNotTheExactLanes) {
  constexpr std::uint32_t kSends = 2 * kSpanSampleEvery;
  GridService svc(synthetic_catalog(kSends, 4.0), quorum1_config());
  for (std::uint64_t s = 1; s <= kSends; ++s) {
    // The frame is a view into the response bytes: keep the response alive
    // across the decode.
    const WireResponse r = svc.handle(request_work(
        0, s, 5.0 + static_cast<double>(s), proto::kFlagWantSpan));
    const proto::Frame f = sole_frame(r);
    // Exact lane: the echo answers every flagged request, sampled or not.
    EXPECT_TRUE(proto::decode<proto::Assignment>(f).span.has_value());
  }
  // Exact lane: every verb still bumps its counter.
  EXPECT_EQ(svc.registry().total("rpc.requests"), kSends);
  // Sampled lane: the countdown starts at 1 (the first send always
  // records), so 32 sends at 1-in-16 hit sends #1 and #17.
  const auto* queue_wait =
      svc.registry().histogram(
          svc.registry().find("rpc.request_work.queue_wait_seconds"));
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->total(), 2u);
}

TEST(GridService, SpansOffDisablesEchoAndStageHistograms) {
  ServiceConfig config = quorum1_config();
  config.spans = false;
  GridService svc(synthetic_catalog(8, 4.0), config);
  // The client may still ask.
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 5.0, proto::kFlagWantSpan))));
  EXPECT_FALSE(a.span.has_value());
  const auto* queue_wait =
      svc.registry().histogram(
          svc.registry().find("rpc.request_work.queue_wait_seconds"));
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->total(), 0u);
}

TEST(GridService, SloViolationsCountAgainstTheObjective) {
  ServiceConfig config = quorum1_config();
  config.slo_latency_seconds = 1.0;
  GridService svc(synthetic_catalog(8, 4.0), config);

  // Decision clock pinned 2 s after arrival: every request_work blows the
  // 1 s objective.
  svc.set_clock([] { return 12.0; });
  svc.handle(request_work(0, 1, 10.0));
  EXPECT_EQ(svc.registry().total("slo.latency_violations"), 1u);

  // Within the objective: no violation.
  svc.set_clock([] { return 12.5; });
  svc.handle(request_work(1, 2, 12.0));
  EXPECT_EQ(svc.registry().total("slo.latency_violations"), 1u);

  // Status polls are not part of the issue-latency SLO.
  svc.set_clock([] { return 100.0; });
  proto::GetStatus q;
  q.seq = 3;
  svc.handle(at(50.0, q));
  EXPECT_EQ(svc.registry().total("slo.latency_violations"), 1u);
}

TEST(GridService, StatusCarriesUptimeAndPerVerbCounters) {
  GridService svc(synthetic_catalog(2, 4.0), quorum1_config());
  svc.set_time_scale(10.0);  // 10 service seconds per wall second
  const auto a = proto::decode<proto::Assignment>(
      sole_frame(svc.handle(request_work(0, 1, 0.0))));
  proto::decode<proto::ReportAck>(
      sole_frame(svc.handle(report(0, 2, 10.0, a))));
  svc.handle(request_work(1, 3, 20.0));

  proto::GetStatus q;
  q.seq = 4;
  const auto s =
      proto::decode<proto::Status>(sole_frame(svc.handle(at(30.0, q))));
  EXPECT_DOUBLE_EQ(s.uptime_seconds, 3.0);  // 30 service s / scale 10
  EXPECT_EQ(s.rpc_assignments, 2u);
  EXPECT_EQ(s.rpc_no_work, 0u);
  EXPECT_EQ(s.rpc_reports, 1u);
  EXPECT_EQ(s.rpc_duplicate_reports, 0u);
  EXPECT_EQ(s.rpc_status, 1u);
  EXPECT_EQ(s.rpc_errors, 0u);
}

TEST(GridService, GetMetricsRendersTheRegistry) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());
  svc.handle(request_work(0, 1, 0.0));

  proto::GetMetrics q;
  q.seq = 2;
  q.format = proto::MetricsFormat::kPrometheus;
  const auto m =
      proto::decode<proto::Metrics>(sole_frame(svc.handle(at(1.0, q))));
  EXPECT_EQ(m.device, 0u);
  EXPECT_EQ(m.seq, 2u);
  EXPECT_EQ(m.format, proto::MetricsFormat::kPrometheus);
  EXPECT_NE(m.text.find("hcmd_rpc_requests_total 2"), std::string::npos)
      << m.text;

  q.seq = 3;
  q.format = proto::MetricsFormat::kJson;
  const auto j =
      proto::decode<proto::Metrics>(sole_frame(svc.handle(at(1.0, q))));
  EXPECT_NE(j.text.find("\"kind\":\"hcmd-metrics-snapshot\""),
            std::string::npos);
  EXPECT_EQ(svc.registry().total("rpc.metrics"), 2u);

  // A custom provider (the GridServer wires one that folds in worker-side
  // histograms) takes over rendering.
  svc.set_metrics_provider(
      [](proto::MetricsFormat) { return std::string("custom"); });
  q.seq = 4;
  EXPECT_EQ(
      proto::decode<proto::Metrics>(sole_frame(svc.handle(at(1.0, q)))).text,
      "custom");
}

TEST(GridService, DumpDiagnosticsUsesTheInjectedSink) {
  GridService svc(synthetic_catalog(4, 4.0), quorum1_config());
  svc.set_diagnostics_sink(
      [] { return std::make_pair(std::string("flight-test.jsonl"),
                                 std::uint64_t{42}); });
  proto::DumpDiagnostics q;
  q.device = 7;
  q.seq = 8;
  const auto ack = proto::decode<proto::DiagnosticsAck>(
      sole_frame(svc.handle(at(1.0, q))));
  EXPECT_EQ(ack.device, 7u);
  EXPECT_EQ(ack.seq, 8u);
  EXPECT_EQ(ack.path, "flight-test.jsonl");
  EXPECT_EQ(ack.events, 42u);
  EXPECT_EQ(svc.registry().total("rpc.diagnostics"), 1u);
}

}  // namespace
