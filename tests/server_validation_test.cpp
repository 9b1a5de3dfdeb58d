// Silent errors, quorum mismatch detection and adaptive replication.
#include <gtest/gtest.h>

#include "server/server.hpp"

namespace hcmd::server {
namespace {

std::vector<packaging::Workunit> make_catalog(std::size_t n) {
  std::vector<packaging::Workunit> catalog;
  for (std::size_t i = 0; i < n; ++i) {
    packaging::Workunit wu;
    wu.id = i;
    wu.receptor = 0;
    wu.ligand = 0;
    wu.isep_begin = 0;
    wu.isep_end = 10;
    wu.reference_seconds = 3600.0;
    catalog.push_back(wu);
  }
  return catalog;
}

ResultReport clean() {
  ResultReport r;
  r.reported_runtime = 100.0;
  r.reference_seconds = 3600.0;
  return r;
}

ResultReport corrupt() {
  ResultReport r = clean();
  r.silent_error = true;
  return r;
}

ServerConfig quorum_config() {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 1e12;
  cfg.endgame_max_outstanding = 0;
  return cfg;
}

ServerConfig range_only_config() {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  cfg.endgame_max_outstanding = 0;
  return cfg;
}

TEST(Validation, SilentErrorPassesRangeCheckAlone) {
  ProjectServer server(make_catalog(1), range_only_config());
  const auto a = server.request_work(1, 0.0);
  EXPECT_EQ(server.report_result(a->result_id, 10.0, corrupt()),
            ResultState::kValid);
  EXPECT_TRUE(server.complete());
  // The oracle sees the corruption; the server's validation did not.
  EXPECT_EQ(server.counters().corrupt_assimilated, 1u);
}

TEST(Validation, QuorumCatchesSingleCorruptMember) {
  ProjectServer server(make_catalog(1), quorum_config());
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);
  EXPECT_EQ(server.report_result(a->result_id, 10.0, corrupt()),
            ResultState::kPendingValidation);
  // Comparison fails: both discarded.
  EXPECT_EQ(server.report_result(b->result_id, 20.0, clean()),
            ResultState::kInvalid);
  EXPECT_EQ(server.result(a->result_id).state, ResultState::kInvalid);
  EXPECT_EQ(server.counters().quorum_mismatches, 1u);
  EXPECT_EQ(server.counters().results_invalid, 2u);
  EXPECT_FALSE(server.complete());

  // The two re-issues rebuild the quorum and complete cleanly.
  const auto c = server.request_work(3, 30.0);
  const auto d = server.request_work(4, 30.0);
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(d.has_value());
  server.report_result(c->result_id, 40.0, clean());
  server.report_result(d->result_id, 50.0, clean());
  EXPECT_TRUE(server.complete());
  EXPECT_EQ(server.counters().corrupt_assimilated, 0u);
}

TEST(Validation, MatchingCorruptPairSlipsThrough) {
  // Both quorum members corrupt "the same way": undetectable — the
  // residual risk of redundant computing.
  ProjectServer server(make_catalog(1), quorum_config());
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);
  server.report_result(a->result_id, 10.0, corrupt());
  EXPECT_EQ(server.report_result(b->result_id, 20.0, corrupt()),
            ResultState::kValid);
  EXPECT_TRUE(server.complete());
  EXPECT_EQ(server.counters().corrupt_assimilated, 1u);
  EXPECT_EQ(server.counters().quorum_mismatches, 0u);
}

ResultReport corrupt(std::uint64_t tag) {
  ResultReport r = corrupt();
  r.corruption_tag = tag;
  return r;
}

// The held partner's tag comes from the server's side table, which empties
// as each comparison takes its tag out.
TEST(Validation, QuorumAgreesOnEqualCorruptionTags) {
  ProjectServer server(make_catalog(1), quorum_config());
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);
  EXPECT_EQ(server.report_result(a->result_id, 10.0, corrupt(7)),
            ResultState::kPendingValidation);
  EXPECT_EQ(server.held_tags(), 1u);
  EXPECT_EQ(server.report_result(b->result_id, 20.0, corrupt(7)),
            ResultState::kValid);
  EXPECT_EQ(server.result(a->result_id).state, ResultState::kValid);
  EXPECT_EQ(server.counters().corrupt_assimilated, 1u);
  EXPECT_EQ(server.counters().quorum_mismatches, 0u);
  EXPECT_EQ(server.held_tags(), 0u);
}

TEST(Validation, QuorumRejectsDifferentCorruptionTags) {
  ProjectServer server(make_catalog(1), quorum_config());
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);
  server.report_result(a->result_id, 10.0, corrupt(7));
  EXPECT_EQ(server.report_result(b->result_id, 20.0, corrupt(8)),
            ResultState::kInvalid);
  EXPECT_EQ(server.result(a->result_id).state, ResultState::kInvalid);
  EXPECT_EQ(server.counters().quorum_mismatches, 1u);
  EXPECT_EQ(server.counters().results_invalid, 2u);
  EXPECT_EQ(server.counters().corrupt_assimilated, 0u);
  EXPECT_EQ(server.reissue_queue_size(), 2u);
  EXPECT_EQ(server.held_tags(), 0u);
  EXPECT_FALSE(server.complete());
}

TEST(Validation, QuorumRejectsCleanAgainstTaggedCorrupt) {
  // Either order: a tagged corrupt result held against a clean one, and a
  // clean result held (no tag to keep) against a tagged corrupt one.
  for (const bool corrupt_first : {true, false}) {
    ProjectServer server(make_catalog(1), quorum_config());
    const auto a = server.request_work(1, 0.0);
    const auto b = server.request_work(2, 0.0);
    server.report_result(a->result_id, 10.0,
                         corrupt_first ? corrupt(7) : clean());
    EXPECT_EQ(server.held_tags(), corrupt_first ? 1u : 0u);
    EXPECT_EQ(server.report_result(b->result_id, 20.0,
                                   corrupt_first ? clean() : corrupt(7)),
              ResultState::kInvalid);
    EXPECT_EQ(server.result(a->result_id).state, ResultState::kInvalid);
    EXPECT_EQ(server.counters().quorum_mismatches, 1u);
    EXPECT_EQ(server.reissue_queue_size(), 2u);
    EXPECT_EQ(server.held_tags(), 0u);
  }
}

TEST(Validation, LateSpotCheckDetectsAfterTheFact) {
  ServerConfig cfg = range_only_config();
  cfg.validation.spot_check_fraction = 1.0;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);  // spot-check copy
  server.report_result(a->result_id, 10.0, corrupt());  // assimilated
  EXPECT_EQ(server.counters().corrupt_assimilated, 1u);
  // The clean spot-check copy arrives and disagrees.
  EXPECT_EQ(server.report_result(b->result_id, 20.0, clean()),
            ResultState::kRedundant);
  EXPECT_EQ(server.counters().late_mismatches, 1u);
}

TEST(Validation, AdaptiveDistrustsNewDevices) {
  ServerConfig cfg = range_only_config();
  cfg.validation.adaptive = true;
  cfg.validation.adaptive_min_samples = 2;
  ProjectServer server(make_catalog(8), cfg);
  // Device 1 is unknown: its first workunit is double-issued with quorum 2.
  const auto a = server.request_work(1, 0.0);
  const auto extra = server.request_work(2, 0.0);
  ASSERT_TRUE(extra.has_value());
  EXPECT_EQ(extra->workunit.id, a->workunit.id);
  server.report_result(a->result_id, 10.0, clean());
  server.report_result(extra->result_id, 20.0, clean());
  EXPECT_EQ(server.counters().workunits_completed, 1u);
}

TEST(Validation, AdaptiveTrustsProvenDevices) {
  ServerConfig cfg = range_only_config();
  cfg.validation.adaptive = true;
  cfg.validation.adaptive_min_samples = 2;
  ProjectServer server(make_catalog(8), cfg);
  // Build device 1's history: two clean quorum rounds with device 2.
  for (int round = 0; round < 2; ++round) {
    const auto a = server.request_work(1, 0.0);
    const auto b = server.request_work(2, 0.0);
    server.report_result(a->result_id, 10.0, clean());
    server.report_result(b->result_id, 20.0, clean());
  }
  // Device 1 is now trusted: its next workunit is single-issued.
  const auto solo = server.request_work(1, 100.0);
  ASSERT_TRUE(solo.has_value());
  EXPECT_EQ(server.report_result(solo->result_id, 110.0, clean()),
            ResultState::kValid);  // immediate assimilation, quorum 1
}

TEST(Validation, AdaptiveKeepsDistrustingFlakyDevices) {
  ServerConfig cfg = range_only_config();
  cfg.validation.adaptive = true;
  cfg.validation.adaptive_min_samples = 2;
  cfg.validation.adaptive_max_bad_fraction = 0.05;
  ProjectServer server(make_catalog(16), cfg);
  // Device 1 returns a computation error, poisoning its history.
  {
    const auto a = server.request_work(1, 0.0);
    const auto b = server.request_work(2, 0.0);
    ResultReport bad = clean();
    bad.computation_error = true;
    server.report_result(a->result_id, 10.0, bad);
    server.report_result(b->result_id, 20.0, clean());
    // The re-issued copy completes the quorum with another device.
    const auto c = server.request_work(3, 30.0);
    server.report_result(c->result_id, 40.0, clean());
  }
  // More history, all clean, but the bad fraction stays above 5 %.
  for (int round = 0; round < 3; ++round) {
    const auto a = server.request_work(1, 100.0);
    const auto b = server.request_work(4, 100.0);
    server.report_result(a->result_id, 110.0, clean());
    server.report_result(b->result_id, 120.0, clean());
  }
  // 1 bad of 4 received = 25 % > 5 %: still distrusted -> double issue.
  const auto next = server.request_work(1, 200.0);
  const auto extra = server.request_work(5, 200.0);
  ASSERT_TRUE(extra.has_value());
  EXPECT_EQ(extra->workunit.id, next->workunit.id);
}

}  // namespace
}  // namespace hcmd::server
