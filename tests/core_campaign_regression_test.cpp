// Golden regression for the campaign headline numbers (F6a/F6b/T2 inputs):
// the default-seed coarse campaign must reproduce these values *bit
// exactly*. The constants were re-captured when the sharded epoch-barrier
// engine replaced the synchronous transitioner (server RPCs now resolve at
// hourly barriers and deadlines fire with hourly rather than daily
// resolution — an intentional semantic change), so any drift here means
// the engine changed dispatch order or timing — a determinism bug, not a
// tolerance issue.
//
// If an intentional semantic change to the campaign model lands, re-capture
// with a %.17g printf of the fields below and update the constants in the
// same commit.
#include <gtest/gtest.h>

#include "core/campaign.hpp"

namespace hcmd::core {
namespace {

const CampaignReport& golden_report() {
  static const CampaignReport report = [] {
    CampaignConfig config;
    config.scale = 0.01;  // default seed, coarse 1/100 scale
    return run_campaign(config);
  }();
  return report;
}

TEST(CampaignGolden, LifecycleCountersBitExact) {
  const auto& r = golden_report();
  const auto& c = r.counters;
  EXPECT_EQ(r.devices_simulated, 2915u);
  EXPECT_EQ(c.results_sent, 48237u);
  EXPECT_EQ(c.results_received, 47811u);
  EXPECT_EQ(c.results_valid, 34567u);
  EXPECT_EQ(c.results_quorum_extra, 3530u);
  EXPECT_EQ(c.results_invalid, 734u);
  EXPECT_EQ(c.results_redundant, 8980u);
  EXPECT_EQ(c.results_timed_out, 1274u);
  EXPECT_EQ(c.results_pending, 0u);
  EXPECT_EQ(c.quorum_mismatches, 0u);
  EXPECT_EQ(c.late_mismatches, 0u);
  EXPECT_EQ(c.corrupt_assimilated, 0u);
  EXPECT_EQ(c.workunits_completed, 34567u);
}

TEST(CampaignGolden, CompletionAndRuntimeAggregatesBitExact) {
  const auto& r = golden_report();
  // EXPECT_DOUBLE_EQ would allow 4 ulps; the requirement is bit-identity.
  EXPECT_EQ(r.completion_weeks, 25.428571428571427);
  EXPECT_EQ(r.counters.useful_reference_seconds, 449868784.9010374);
  EXPECT_EQ(r.counters.reported_runtime_seconds, 2465283311.17629);
  EXPECT_EQ(r.runtime_summary.mean, 51563.098683907003);
  EXPECT_EQ(r.runtime_summary.count, 47811u);
}

TEST(CampaignGolden, VftpAndCreditSeriesBitExact) {
  const auto& r = golden_report();
  EXPECT_EQ(r.avg_wcg_vftp_whole, 55869.374238346973);
  EXPECT_EQ(r.avg_hcmd_vftp_whole, 16043.688621537811);
  EXPECT_EQ(r.avg_hcmd_vftp_fullpower, 24197.228945140163);
  EXPECT_EQ(r.total_credit, 80674801.988260508);
  ASSERT_GT(r.hcmd_vftp_weekly.size(), 3u);
  ASSERT_GT(r.results_received_weekly.size(), 3u);
  EXPECT_EQ(r.hcmd_vftp_weekly[3], 1764.2503912872207);
  EXPECT_EQ(r.results_received_weekly[3], 20500.0);
}

// The default campaign with a server outage over the first deadline
// wave (ticks fall 240 h after a result is sent). 86 transitioner ticks
// land in the outage: 84 are re-armed past their barrier and 2 fire after
// the outage ends at 1968.5 h, inside the 1969 h barrier that popped them.
// Captured with %.17g before the barrier and the wire service shared one
// replay loop; identical at one and four shards.
TEST(CampaignGolden, OutageDefersDeadlineTicksBitExact) {
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE(shards);
    CampaignConfig config;
    config.scale = 0.01;
    config.shards = shards;
    config.faults.outages = {{1800.0 * 3600.0, 1968.5 * 3600.0}};
    const CampaignReport r = run_campaign(config);
    EXPECT_EQ(r.faults.counters.deadline_deferrals, 86u);
    EXPECT_EQ(r.faults.counters.outage_denied_requests, 4953u);
    EXPECT_EQ(r.faults.counters.deferred_uploads, 459u);
    EXPECT_EQ(r.completion_weeks, 27.428571428571427);
    EXPECT_EQ(r.counters.results_sent, 47958u);
    EXPECT_EQ(r.counters.results_received, 47525u);
    EXPECT_EQ(r.counters.results_timed_out, 1370u);
    EXPECT_EQ(r.counters.workunits_completed, 34567u);
    EXPECT_EQ(r.counters.reported_runtime_seconds, 2453206172.0800285);
    EXPECT_EQ(r.events_processed, 601833u);
  }
}

}  // namespace
}  // namespace hcmd::core
