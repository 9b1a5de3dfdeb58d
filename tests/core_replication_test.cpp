#include "core/replication.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hcmd::core {
namespace {

CampaignConfig tiny_config() {
  CampaignConfig config;
  config.scale = 0.002;
  config.max_weeks = 45.0;
  return config;
}

TEST(Replication, RejectsZeroReplicas) {
  EXPECT_THROW(replicate_campaign(tiny_config(), 0), hcmd::ConfigError);
}

TEST(Replication, RunsRequestedReplicas) {
  const ReplicationResult r = replicate_campaign(tiny_config(), 4, 100, 2);
  EXPECT_EQ(r.replicas, 4u);
  EXPECT_EQ(r.reports.size(), 4u);
  EXPECT_FALSE(r.metrics.empty());
}

TEST(Replication, SeedsProduceDistinctRuns) {
  const ReplicationResult r = replicate_campaign(tiny_config(), 3, 7, 2);
  EXPECT_NE(r.reports[0].counters.results_received,
            r.reports[1].counters.results_received);
}

TEST(Replication, DeterministicAcrossThreadCounts) {
  // The replicas are independent simulations; assembling them on 1 or 4
  // threads must give identical reports.
  const ReplicationResult a = replicate_campaign(tiny_config(), 3, 11, 1);
  const ReplicationResult b = replicate_campaign(tiny_config(), 3, 11, 4);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a.reports[i].counters.results_received,
              b.reports[i].counters.results_received);
    EXPECT_EQ(a.reports[i].completion_weeks, b.reports[i].completion_weeks);
  }
}

TEST(Replication, ReplicaFailureReachesTheCaller) {
  // More shards than the tiny fleet has devices (scale 0.002 draws about
  // 660): run_campaign rejects every replica before it builds an engine.
  // The rejection must reach the caller, and the next call must still run.
  CampaignConfig too_many_shards = tiny_config();
  too_many_shards.shards = 1000;
  EXPECT_THROW(replicate_campaign(too_many_shards, 2, 1, 2),
               hcmd::ConfigError);
  const ReplicationResult r = replicate_campaign(tiny_config(), 2, 1, 2);
  EXPECT_EQ(r.reports.size(), 2u);
  EXPECT_GT(r.reports[1].counters.results_received, 0u);
}

TEST(Replication, ComposesWithShardedRunsDeterministically) {
  // replicas x shards: the replica fan-out divides its worker budget by the
  // per-replica shard parallelism (no oversubscription), and sharding a
  // replica never changes its report — the sharded replicated summary is
  // bit-identical to the sequential one.
  CampaignConfig sharded = tiny_config();
  sharded.shards = 2;
  const ReplicationResult a = replicate_campaign(tiny_config(), 2, 31, 2);
  const ReplicationResult b = replicate_campaign(sharded, 2, 31, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.reports[i].counters.results_received,
              b.reports[i].counters.results_received);
    EXPECT_EQ(a.reports[i].counters.results_valid,
              b.reports[i].counters.results_valid);
    EXPECT_EQ(a.reports[i].completion_weeks, b.reports[i].completion_weeks);
    EXPECT_EQ(b.reports[i].shards, 2u);
  }
  for (std::size_t m = 0; m < a.metrics.size(); ++m) {
    EXPECT_EQ(a.metrics[m].mean, b.metrics[m].mean) << a.metrics[m].name;
    EXPECT_EQ(a.metrics[m].stddev, b.metrics[m].stddev) << a.metrics[m].name;
  }
}

TEST(Replication, MetricLookup) {
  const ReplicationResult r = replicate_campaign(tiny_config(), 2, 5, 2);
  EXPECT_NO_THROW(r.metric("redundancy_factor"));
  EXPECT_THROW(r.metric("nonsense"), hcmd::Error);
}

TEST(Replication, SummariesBracketReports) {
  const ReplicationResult r = replicate_campaign(tiny_config(), 4, 21, 2);
  const MetricSummary& m = r.metric("completion_weeks");
  for (const auto& report : r.reports) {
    EXPECT_GE(report.completion_weeks, m.min);
    EXPECT_LE(report.completion_weeks, m.max);
  }
  EXPECT_GE(m.mean, m.min);
  EXPECT_LE(m.mean, m.max);
  EXPECT_GE(m.ci95, 0.0);
}

TEST(Replication, HeadlineMetricsStableAcrossSeeds) {
  // The reproduction's load-bearing ratios are not a single-seed fluke:
  // the across-seed spread is tight.
  const ReplicationResult r = replicate_campaign(tiny_config(), 6, 1, 0);
  const MetricSummary& redundancy = r.metric("redundancy_factor");
  EXPECT_NEAR(redundancy.mean, 1.37, 0.12);
  EXPECT_LT(redundancy.stddev, 0.08);
  const MetricSummary& net = r.metric("net_speeddown");
  EXPECT_NEAR(net.mean, 3.96, 0.5);
  EXPECT_LT(net.stddev / net.mean, 0.06);
}

}  // namespace
}  // namespace hcmd::core
