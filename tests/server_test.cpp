#include "server/server.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace hcmd::server {
namespace {

std::vector<packaging::Workunit> make_catalog(std::size_t n,
                                              double ref_seconds = 3600.0) {
  std::vector<packaging::Workunit> catalog;
  for (std::size_t i = 0; i < n; ++i) {
    packaging::Workunit wu;
    wu.id = i;
    wu.receptor = static_cast<std::uint32_t>(i % 4);
    wu.ligand = static_cast<std::uint32_t>(i % 3);
    wu.isep_begin = 0;
    wu.isep_end = 10;
    wu.reference_seconds = ref_seconds;
    catalog.push_back(wu);
  }
  return catalog;
}

/// A config with no redundancy at all, for deterministic lifecycle tests.
ServerConfig plain_config() {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  cfg.endgame_max_outstanding = 0;
  return cfg;
}

ResultReport ok_report(double runtime = 1000.0, double ref = 3600.0) {
  ResultReport r;
  r.reported_runtime = runtime;
  r.reference_seconds = ref;
  return r;
}

TEST(Server, RejectsEmptyCatalog) {
  EXPECT_THROW(ProjectServer({}, plain_config()), hcmd::ConfigError);
}

TEST(Server, IssuesInCatalogOrder) {
  ProjectServer server(make_catalog(5), plain_config());
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto a = server.request_work(1, 0.0);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->workunit.id, i);
  }
  EXPECT_FALSE(server.request_work(1, 0.0).has_value());
}

TEST(Server, SingleResultCompletesWorkunit) {
  ProjectServer server(make_catalog(1), plain_config());
  const auto a = server.request_work(1, 0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(server.workunit_state(0), WorkunitState::kInProgress);
  EXPECT_EQ(server.report_result(a->result_id, 100.0, ok_report()),
            ResultState::kValid);
  EXPECT_EQ(server.workunit_state(0), WorkunitState::kDone);
  EXPECT_TRUE(server.complete());
  const auto& c = server.counters();
  EXPECT_EQ(c.results_valid, 1u);
  EXPECT_EQ(c.workunits_completed, 1u);
  EXPECT_DOUBLE_EQ(c.useful_reference_seconds, 3600.0);
  EXPECT_DOUBLE_EQ(c.reported_runtime_seconds, 1000.0);
}

TEST(Server, InvalidResultTriggersReissue) {
  ProjectServer server(make_catalog(1), plain_config());
  const auto a = server.request_work(1, 0.0);
  ResultReport bad;
  bad.computation_error = true;
  EXPECT_EQ(server.report_result(a->result_id, 50.0, bad),
            ResultState::kInvalid);
  EXPECT_FALSE(server.complete());
  // The re-issue goes out on the next request.
  const auto b = server.request_work(2, 60.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->workunit.id, 0u);
  server.report_result(b->result_id, 120.0, ok_report());
  EXPECT_TRUE(server.complete());
  EXPECT_EQ(server.counters().results_invalid, 1u);
}

TEST(Server, DeadlineTimeoutReissues) {
  ServerConfig cfg = plain_config();
  cfg.deadline = 100.0;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  EXPECT_FALSE(server.handle_deadline(a->result_id, 50.0));  // too early
  EXPECT_TRUE(server.handle_deadline(a->result_id, 100.0));
  EXPECT_FALSE(server.handle_deadline(a->result_id, 200.0));  // already fired
  EXPECT_EQ(server.counters().results_timed_out, 1u);
  const auto b = server.request_work(2, 150.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->workunit.id, 0u);
}

// The result records are the transitioner's schedule: pop_due walks them
// in id order, which is deadline order.
ProjectServer issued_at(const std::vector<double>& times, double deadline) {
  ServerConfig cfg = plain_config();
  cfg.deadline = deadline;
  ProjectServer server(make_catalog(8), cfg);
  for (std::uint32_t d = 0; d < times.size(); ++d)
    server.request_work(d, times[d]);
  return server;
}

std::vector<std::uint64_t> ids(const std::vector<DeadlineTick>& due) {
  std::vector<std::uint64_t> out;
  for (const DeadlineTick& d : due) out.push_back(d.result_id);
  return out;
}

TEST(Server, PopDueYieldsTicksInTimeThenIdOrder) {
  ProjectServer server = issued_at({0.0, 0.0, 10.0, 10.0, 20.0}, 10.0);
  std::vector<DeadlineTick> due;
  server.pop_due(20.0, due);  // time == t is due
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(due.front().time, 10.0);
  EXPECT_EQ(due.back().time, 20.0);

  due.clear();
  server.pop_due(29.0, due);
  EXPECT_TRUE(due.empty());
  server.pop_due(30.0, due);
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{4}));
  server.pop_due(1e9, due);  // each result is passed once
  EXPECT_EQ(due.size(), 1u);
}

TEST(Server, PopDueSkipsReportedResults) {
  ProjectServer server = issued_at({0.0, 0.0}, 10.0);
  server.report_result(0, 5.0, ok_report());
  std::vector<DeadlineTick> due;
  server.pop_due(100.0, due);
  EXPECT_EQ(ids(due), (std::vector<std::uint64_t>{1}));
}

TEST(Server, ResultsInProgressCountLiveTicks) {
  ProjectServer server = issued_at({}, 10.0);
  EXPECT_EQ(server.results_in_progress(), 0u);
  for (std::uint32_t d = 0; d < 5; ++d) server.request_work(d, d);
  EXPECT_EQ(server.results_in_progress(), 5u);
  server.report_result(2, 5.0, ok_report());
  EXPECT_EQ(server.results_in_progress(), 4u);
  std::vector<DeadlineTick> due;
  server.pop_due(11.0, due);  // ids 0 and 1
  for (const DeadlineTick& d : due)
    EXPECT_TRUE(server.handle_deadline(d.result_id, d.time));
  EXPECT_EQ(server.results_in_progress(), 2u);
}

TEST(Server, IssueTimeNeverDecreasesWithResultId) {
  // A request stamped before the previous issue is sent at that issue's
  // time, so its deadline is never earlier.
  ProjectServer server = issued_at({50.0, 40.0, 60.0}, 10.0);
  EXPECT_DOUBLE_EQ(server.result(0).sent_time, 50.0);
  EXPECT_DOUBLE_EQ(server.result(1).sent_time, 50.0);
  EXPECT_DOUBLE_EQ(server.result(2).sent_time, 60.0);
  EXPECT_DOUBLE_EQ(server.result_deadline(1), 60.0);
}

TEST(Server, LateResultAfterTimeoutStillCounts) {
  // "when the agent reconnects and sends back the result ... this result is
  // taken into account even if the result has already been computed".
  ServerConfig cfg = plain_config();
  cfg.deadline = 100.0;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  server.handle_deadline(a->result_id, 100.0);
  const auto b = server.request_work(2, 110.0);
  server.report_result(b->result_id, 200.0, ok_report());
  EXPECT_TRUE(server.complete());
  // Now the original, very late upload arrives: received but redundant.
  EXPECT_EQ(server.report_result(a->result_id, 5000.0, ok_report()),
            ResultState::kRedundant);
  const auto& c = server.counters();
  EXPECT_EQ(c.results_received, 2u);
  EXPECT_EQ(c.results_valid, 1u);
  EXPECT_EQ(c.results_redundant, 1u);
  EXPECT_DOUBLE_EQ(c.redundancy_factor(), 2.0);
  EXPECT_DOUBLE_EQ(c.useful_fraction(), 0.5);
}

TEST(Server, LateResultCanStillCompleteWorkunit) {
  ServerConfig cfg = plain_config();
  cfg.deadline = 100.0;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  server.handle_deadline(a->result_id, 100.0);
  // No one else computed it; the late original completes the workunit.
  EXPECT_EQ(server.report_result(a->result_id, 500.0, ok_report()),
            ResultState::kValid);
  EXPECT_TRUE(server.complete());
}

TEST(Server, QuorumTwoNeedsBothResults) {
  ServerConfig cfg = plain_config();
  cfg.validation.quorum2_until = 1e9;  // whole test in quorum-2 regime
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);  // second copy of WU 0
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->workunit.id, b->workunit.id);
  // The first clean result is held for comparison.
  EXPECT_EQ(server.report_result(a->result_id, 100.0, ok_report()),
            ResultState::kPendingValidation);
  EXPECT_EQ(server.counters().results_pending, 1u);
  EXPECT_FALSE(server.complete());  // one of two
  EXPECT_EQ(server.report_result(b->result_id, 120.0, ok_report()),
            ResultState::kValid);
  EXPECT_TRUE(server.complete());
  const auto& c = server.counters();
  EXPECT_EQ(c.results_valid, 1u);         // canonical
  EXPECT_EQ(c.results_quorum_extra, 1u);  // the comparison partner
  EXPECT_EQ(c.results_pending, 0u);
  // The held partner was promoted to valid.
  EXPECT_EQ(server.result(a->result_id).state, ResultState::kValid);
  EXPECT_DOUBLE_EQ(c.redundancy_factor(), 2.0);
}

TEST(Server, SpotCheckIssuesSecondCopy) {
  ServerConfig cfg = plain_config();
  cfg.validation.spot_check_fraction = 1.0;  // every WU double-issued
  ProjectServer server(make_catalog(2), cfg);
  const auto a = server.request_work(1, 0.0);
  const auto b = server.request_work(2, 0.0);
  EXPECT_EQ(a->workunit.id, b->workunit.id);  // the extra copy goes first
  // Quorum is still 1: the first result completes the workunit.
  server.report_result(a->result_id, 10.0, ok_report());
  EXPECT_EQ(server.workunit_state(0), WorkunitState::kDone);
  // And the spot-check copy comes back redundant.
  EXPECT_EQ(server.report_result(b->result_id, 20.0, ok_report()),
            ResultState::kRedundant);
}

TEST(Server, EndgameDuplicatesStragglers) {
  ServerConfig cfg = plain_config();
  cfg.endgame_max_outstanding = 3;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(1, 0.0);
  ASSERT_TRUE(a.has_value());
  // No fresh work left, but end-game hands out extra copies up to the cap.
  const auto b = server.request_work(2, 10.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->workunit.id, 0u);
  const auto c = server.request_work(3, 20.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_FALSE(server.request_work(4, 30.0).has_value());  // cap reached
  // First arrival completes it; the others are redundant.
  server.report_result(a->result_id, 100.0, ok_report());
  EXPECT_TRUE(server.complete());
  EXPECT_EQ(server.report_result(b->result_id, 110.0, ok_report()),
            ResultState::kRedundant);
}

TEST(Server, EndgameDisabledGivesNothing) {
  ProjectServer server(make_catalog(1), plain_config());
  server.request_work(1, 0.0);
  EXPECT_FALSE(server.request_work(2, 1.0).has_value());
}

TEST(Server, CompletedPositionsPerReceptor) {
  ProjectServer server(make_catalog(8), plain_config());
  // Complete the first 3 workunits (receptors 0, 1, 2; 10 positions each).
  for (int i = 0; i < 3; ++i) {
    const auto a = server.request_work(1, 0.0);
    server.report_result(a->result_id, 10.0, ok_report());
  }
  const auto per = server.completed_positions_per_receptor(4);
  EXPECT_EQ(per[0], 10u);
  EXPECT_EQ(per[1], 10u);
  EXPECT_EQ(per[2], 10u);
  EXPECT_EQ(per[3], 0u);
}

TEST(Server, ReferenceSecondsPerReceptor) {
  ProjectServer server(make_catalog(4, 100.0), plain_config());
  const auto totals = server.total_reference_seconds_per_receptor(4);
  for (double t : totals) EXPECT_DOUBLE_EQ(t, 100.0);
  const auto a = server.request_work(1, 0.0);
  server.report_result(a->result_id, 10.0, ok_report(10.0, 100.0));
  const auto done = server.completed_reference_seconds_per_receptor(4);
  EXPECT_DOUBLE_EQ(done[0], 100.0);
  EXPECT_DOUBLE_EQ(done[1], 0.0);
}

TEST(Server, ResultInstanceBookkeeping) {
  ServerConfig cfg = plain_config();
  cfg.deadline = 500.0;
  ProjectServer server(make_catalog(1), cfg);
  const auto a = server.request_work(9, 100.0);
  EXPECT_DOUBLE_EQ(a->deadline, 600.0);
  EXPECT_DOUBLE_EQ(server.result_deadline(a->result_id), 600.0);
  const ResultInstance& inst = server.result(a->result_id);
  EXPECT_EQ(inst.device_id, 9u);
  EXPECT_DOUBLE_EQ(inst.sent_time, 100.0);
  EXPECT_EQ(inst.state, ResultState::kInProgress);
  server.report_result(a->result_id, 250.0, ok_report(42.0));
  EXPECT_EQ(server.result(a->result_id).state, ResultState::kValid);
  EXPECT_DOUBLE_EQ(server.counters().reported_runtime_seconds, 42.0);
}

TEST(Server, DeviceIdPastTheRecordIsRefused) {
  // A result record keeps the device id in 24 bits.
  ProjectServer server(make_catalog(2), plain_config());
  EXPECT_THROW(server.request_work(kMaxDevices, 0.0), hcmd::ConfigError);
  EXPECT_EQ(server.counters().results_sent, 0u);
  const auto a = server.request_work(kMaxDevices - 1, 0.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->workunit.id, 0u);  // the refused call issued nothing
  EXPECT_EQ(server.result(a->result_id).device_id, kMaxDevices - 1);
}

TEST(Server, DoubleReportIsALogicError) {
  ProjectServer server(make_catalog(1), plain_config());
  const auto a = server.request_work(1, 0.0);
  server.report_result(a->result_id, 10.0, ok_report());
  EXPECT_THROW(server.report_result(a->result_id, 20.0, ok_report()),
               std::logic_error);
}

TEST(Server, WorkunitsRemaining) {
  ProjectServer server(make_catalog(3), plain_config());
  EXPECT_EQ(server.workunits_remaining(), 3u);
  const auto a = server.request_work(1, 0.0);
  server.report_result(a->result_id, 10.0, ok_report());
  EXPECT_EQ(server.workunits_remaining(), 2u);
}

}  // namespace
}  // namespace hcmd::server
