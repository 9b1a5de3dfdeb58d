// Telemetry must be a pure observer: attaching a tracer (and the registry
// instrumentation that rides along) may not perturb the simulation, and the
// trace stream itself must be a deterministic function of the config.
//
// Three properties, all at the golden scale-0.01 default-seed config:
//   1. two traced runs produce byte-identical trace streams (JSONL and
//      Chrome export alike);
//   2. a traced run reproduces the golden regression numbers bit-exactly
//      (the same constants core_campaign_regression_test pins for the
//      untraced run — tracing changed nothing);
//   3. the stream shows result ids issued densely and in time order at
//      K = 1 and K = 4, the order the transitioner's cursor relies on.
#include <gtest/gtest.h>

#include <vector>

#include "core/campaign.hpp"
#include "core/run_report.hpp"

namespace hcmd::core {
namespace {

CampaignConfig golden_config() {
  CampaignConfig config;
  config.scale = 0.01;  // default seed, coarse 1/100 scale
  return config;
}

struct TracedRun {
  CampaignReport report;
  std::string jsonl;
  std::string chrome;
  std::uint64_t recorded = 0;
};

TracedRun traced_run() {
  obs::Tracer tracer;
  CampaignInstruments instruments;
  instruments.tracer = &tracer;
  TracedRun out;
  out.report = run_campaign(golden_config(), instruments);
  out.jsonl = tracer.jsonl();
  out.chrome = tracer.chrome_trace_json();
  out.recorded = tracer.recorded();
  return out;
}

const TracedRun& first_run() {
  static const TracedRun run = traced_run();
  return run;
}

TEST(TraceDeterminism, IdenticalRunsProduceIdenticalStreams) {
  const TracedRun& a = first_run();
  const TracedRun b = traced_run();
  EXPECT_GT(a.recorded, 0u);
  EXPECT_EQ(a.recorded, b.recorded);
  EXPECT_EQ(a.jsonl, b.jsonl);    // byte-identical
  EXPECT_EQ(a.chrome, b.chrome);  // byte-identical
}

TEST(TraceDeterminism, TracingDoesNotPerturbGoldenNumbers) {
  // The exact constants core_campaign_regression_test pins for the bare
  // run: if tracing drew RNG, scheduled an event or re-ordered dispatch,
  // these would drift.
  const auto& r = first_run().report;
  const auto& c = r.counters;
  EXPECT_EQ(r.devices_simulated, 2915u);
  EXPECT_EQ(c.results_sent, 48237u);
  EXPECT_EQ(c.results_received, 47811u);
  EXPECT_EQ(c.results_valid, 34567u);
  EXPECT_EQ(c.workunits_completed, 34567u);
  EXPECT_EQ(r.completion_weeks, 25.428571428571427);
  EXPECT_EQ(r.counters.useful_reference_seconds, 449868784.9010374);
  EXPECT_EQ(r.counters.reported_runtime_seconds, 2465283311.17629);
  EXPECT_EQ(r.runtime_summary.mean, 51563.098683907003);
  EXPECT_EQ(r.avg_wcg_vftp_whole, 55869.374238346973);
  EXPECT_EQ(r.avg_hcmd_vftp_whole, 16043.688621537811);
  EXPECT_EQ(r.total_credit, 80674801.988260508);
}

TEST(TraceDeterminism, TraceStreamCoversLifecycle) {
  const TracedRun& a = first_run();
  // Every workunit lifecycle stage must appear in the stream.
  for (const char* ev : {"\"ev\":\"wu_issue\"", "\"ev\":\"wu_return\"",
                         "\"ev\":\"wu_timeout\"", "\"ev\":\"wu_reissue\"",
                         "\"ev\":\"wu_assimilate\"", "\"ev\":\"dev_join\"",
                         "\"ev\":\"dev_death\""})
    EXPECT_NE(a.jsonl.find(ev), std::string::npos) << ev;
}

TEST(TraceDeterminism, RunReportCarriesPaperSeries) {
  const TracedRun& a = first_run();
  obs::Tracer tracer;  // stats-only section; stream content already checked
  const std::string json = run_report_json(golden_config(), a.report,
                                           &tracer);
  for (const char* key :
       {"\"fig6a\"", "\"fig6b\"", "\"fig7\"", "\"fig8\"", "\"table2\"",
        "\"hcmd_vftp_weekly\"", "\"results_useful_weekly\"",
        "\"gross_speeddown\"", "\"telemetry\"", "\"self_profile\"",
        "\"trace\""})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceDeterminism, TelemetrySnapshotPopulated) {
  const auto& r = first_run().report;
  EXPECT_FALSE(r.telemetry_counters.empty());
  EXPECT_FALSE(r.telemetry_histograms.empty());
  // The fleet's pre-resolved counters and the server's histograms landed in
  // the same registry.
  bool saw_requests = false, saw_turnaround = false;
  for (const auto& tc : r.telemetry_counters)
    if (tc.name == "fleet.work_requests" && tc.value > 0) saw_requests = true;
  for (const auto& th : r.telemetry_histograms)
    if (th.name == "server.result_turnaround_seconds" && th.count > 0)
      saw_turnaround = true;
  EXPECT_TRUE(saw_requests);
  EXPECT_TRUE(saw_turnaround);
}

// ProjectServer::pop_due walks result ids as deadline order, and
// ProjectServer::issue clamps a sent time to the previous one to keep it
// so. The barrier replay issues in merge order, so in a campaign the clamp
// never binds: the traced issue times (the request times, before any
// clamp) never decrease with the result id.
TEST(TraceDeterminism, ResultIdsAreIssuedInTimeOrder) {
  for (const std::uint32_t k : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << k);
    obs::Tracer::Options options;
    options.sample_every = {1, 0, 0, 0, 0, 0};  // every workunit event only
    obs::Tracer tracer(options);
    CampaignInstruments instruments;
    instruments.tracer = &tracer;
    CampaignConfig config = golden_config();
    config.shards = k;
    const CampaignReport r = run_campaign(config, instruments);
    ASSERT_LE(tracer.recorded(), tracer.capacity()) << "ring overwritten";

    constexpr auto kIssue = static_cast<std::uint8_t>(obs::TraceEv::kWuIssue);
    std::vector<double> issued(r.counters.results_sent, -1.0);
    for (const obs::TraceEvent& e : tracer.snapshot()) {
      if (e.ev != kIssue) continue;
      ASSERT_LT(e.id, issued.size());
      ASSERT_EQ(issued[e.id], -1.0) << "result " << e.id << " issued twice";
      issued[e.id] = e.t;
    }
    std::uint64_t inversions = 0;
    for (std::size_t id = 0; id < issued.size(); ++id) {
      ASSERT_GE(issued[id], 0.0) << "result " << id << " never issued";
      if (id > 0 && issued[id] < issued[id - 1]) ++inversions;
    }
    EXPECT_EQ(inversions, 0u);
  }
}

}  // namespace
}  // namespace hcmd::core
