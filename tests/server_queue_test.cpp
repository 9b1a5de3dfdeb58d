// Regression tests for the server's bounded bookkeeping:
//  * the end-game staging queue must never outgrow the live workunit count
//    (an earlier version re-enqueued every picked index unconditionally, so
//    a long tail of idle devices made the queue grow without bound);
//  * the per-workunit issue counter must count past 255 (it was a saturating
//    uint8 — a workunit hammered by a flaky fleet silently pinned at 255);
//  * an end-game rebuild scans only the workunits not yet done, and must
//    pick exactly what a scan of the whole catalogue would.
#include "server/server.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <random>
#include <vector>

namespace hcmd::server {
namespace {

std::vector<packaging::Workunit> make_catalog(std::size_t n,
                                              double ref_seconds = 3600.0) {
  std::vector<packaging::Workunit> catalog;
  for (std::size_t i = 0; i < n; ++i) {
    packaging::Workunit wu;
    wu.id = i;
    wu.receptor = 0;
    wu.ligand = 0;
    wu.isep_begin = 0;
    wu.isep_end = 10;
    wu.reference_seconds = ref_seconds;
    catalog.push_back(wu);
  }
  return catalog;
}

ResultReport ok_report() {
  ResultReport r;
  r.reported_runtime = 1000.0;
  r.reference_seconds = 3600.0;
  return r;
}

ResultReport error_report() {
  ResultReport r;
  r.computation_error = true;
  return r;
}

TEST(ServerQueue, EndgameQueueBoundedByLiveWorkunits) {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  cfg.endgame_max_outstanding = 3;
  const std::size_t kWorkunits = 10;
  ProjectServer server(make_catalog(kWorkunits), cfg);

  // Drain the fresh catalogue: one primary copy per workunit.
  std::uint32_t device = 0;
  for (std::size_t i = 0; i < kWorkunits; ++i)
    ASSERT_TRUE(server.request_work(device++, 0.0).has_value());

  // A large idle fleet keeps asking for work. Every request either gets an
  // end-game duplicate or nothing; the staging queue must stay bounded by
  // the live workunit count at every step.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      server.request_work(device++, 1.0);
      EXPECT_LE(server.endgame_queue_size(), kWorkunits);
    }
  }
  // Saturation: every workunit holds exactly endgame_max_outstanding copies.
  for (std::uint32_t wu = 0; wu < kWorkunits; ++wu)
    EXPECT_EQ(server.workunit_outstanding(wu), cfg.endgame_max_outstanding);

  // Complete half the catalogue; the bound follows the live count down.
  for (std::uint64_t r = 0; r < kWorkunits / 2; ++r)
    server.report_result(r, 2.0, ok_report());
  for (int i = 0; i < 100; ++i) {
    server.request_work(device++, 3.0);
    EXPECT_LE(server.endgame_queue_size(), kWorkunits - kWorkunits / 2);
  }
}

TEST(ServerQueue, EndgameStopsDuplicatingCompletedWork) {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  cfg.endgame_max_outstanding = 2;
  ProjectServer server(make_catalog(1), cfg);

  ASSERT_TRUE(server.request_work(0, 0.0).has_value());
  server.report_result(0, 1.0, ok_report());
  EXPECT_TRUE(server.complete());
  // No live work: requests return nothing and the queue stays empty.
  EXPECT_FALSE(server.request_work(1, 2.0).has_value());
  EXPECT_EQ(server.endgame_queue_size(), 0u);
}

TEST(ServerQueue, IssueCounterCountsPast255) {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  cfg.endgame_max_outstanding = 0;
  ProjectServer server(make_catalog(1), cfg);

  // A flaky fleet errors out 300 times; every error re-queues the workunit
  // and the next request re-issues it. With the old uint8 counter this
  // pinned at 255.
  double t = 0.0;
  for (int i = 0; i < 300; ++i) {
    const auto a = server.request_work(0, t);
    ASSERT_TRUE(a.has_value()) << "round " << i;
    server.report_result(a->result_id, t + 1.0, error_report());
    t += 2.0;
  }
  EXPECT_EQ(server.workunit_issues(0), 300u);
  EXPECT_EQ(server.counters().results_invalid, 300u);
  EXPECT_EQ(server.workunit_outstanding(0), 0u);

  // The workunit still completes normally afterwards.
  const auto a = server.request_work(0, t);
  ASSERT_TRUE(a.has_value());
  server.report_result(a->result_id, t + 1.0, ok_report());
  EXPECT_TRUE(server.complete());
  EXPECT_EQ(server.workunit_issues(0), 301u);
}

TEST(ServerQueue, ReissueQueueCountsQuorumMismatchTwice) {
  // A quorum mismatch legitimately queues the same workunit twice (both
  // members are discarded and the quorum restarts); the queue bookkeeping
  // must deliver both copies.
  ServerConfig cfg;
  cfg.validation.quorum2_until = 1e12;  // quorum of 2 throughout
  cfg.endgame_max_outstanding = 0;
  ProjectServer server(make_catalog(1), cfg);

  const auto a = server.request_work(0, 0.0);
  const auto b = server.request_work(1, 0.0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  ResultReport clean = ok_report();
  ResultReport corrupt = ok_report();
  corrupt.silent_error = true;  // passes the range check, fails comparison
  server.report_result(a->result_id, 1.0, clean);
  server.report_result(b->result_id, 1.0, corrupt);
  EXPECT_EQ(server.counters().quorum_mismatches, 1u);
  EXPECT_EQ(server.reissue_queue_size(), 2u);
  // Both quorum members can be re-issued immediately.
  EXPECT_TRUE(server.request_work(2, 2.0).has_value());
  EXPECT_TRUE(server.request_work(3, 2.0).has_value());
  EXPECT_EQ(server.reissue_queue_size(), 0u);
  EXPECT_EQ(server.workunit_outstanding(0), 2u);
}

/// request_work's choice once the catalogue is drained, by a full scan:
/// the re-issue queue first (done workunits skipped), then the end-game
/// staging queue, rebuilt from every record of the catalogue when it
/// drains after a change. The test mirrors every re-issue the server
/// queues and every change that dirties the staging queue.
class DrainedRequestOracle {
 public:
  DrainedRequestOracle(const ProjectServer& server,
                       std::uint32_t max_outstanding)
      : server_(server), max_(max_outstanding) {}

  void reissued(std::uint32_t wu) { reissue_.push_back(wu); }
  void changed() { dirty_ = true; }
  std::size_t rebuilds() const { return rebuilds_; }

  std::optional<std::uint32_t> next() {
    while (!reissue_.empty()) {
      const std::uint32_t wu = reissue_.front();
      reissue_.pop_front();
      if (!done(wu)) return wu;
    }
    for (int pass = 0; pass < 2; ++pass) {
      while (!endgame_.empty()) {
        const std::uint32_t wu = endgame_.front();
        endgame_.pop_front();
        const std::uint32_t out = server_.workunit_outstanding(wu);
        if (done(wu) || out >= max_) continue;
        if (out + 1 < max_) endgame_.push_back(wu);
        return wu;
      }
      if (!dirty_) return std::nullopt;
      dirty_ = false;
      ++rebuilds_;
      for (std::uint32_t wu = 0; wu < server_.catalog().size(); ++wu)
        if (!done(wu) && server_.workunit_outstanding(wu) < max_)
          endgame_.push_back(wu);
      if (endgame_.empty()) return std::nullopt;
    }
    return std::nullopt;
  }

 private:
  bool done(std::uint32_t wu) const {
    return server_.workunit_state(wu) == WorkunitState::kDone;
  }

  const ProjectServer& server_;
  std::uint32_t max_;
  std::deque<std::uint32_t> reissue_;
  std::deque<std::uint32_t> endgame_;
  bool dirty_ = true;
  std::size_t rebuilds_ = 0;
};

TEST(ServerQueue, EndgamePicksMatchAFullScanOracle) {
  ServerConfig cfg;
  cfg.validation.quorum2_until = 50.0;  // the first half runs quorum 2
  cfg.validation.spot_check_fraction = 0.3;
  cfg.deadline = 400.0;
  cfg.endgame_max_outstanding = 3;
  const std::uint32_t kWorkunits = 240;
  ProjectServer server(make_catalog(kWorkunits), cfg);
  DrainedRequestOracle oracle(server, cfg.endgame_max_outstanding);

  std::vector<std::uint64_t> live;  // issued, neither reported nor timed out
  std::vector<std::uint64_t> late;  // timed out, not yet reported
  std::uint32_t device = 0;
  double now = 0.0;

  // Issue the whole catalogue, extra initial copies included; no end-game
  // pick can happen before this is done.
  const auto all_issued = [&] {
    for (std::uint32_t wu = 0; wu < kWorkunits; ++wu)
      if (server.workunit_issues(wu) == 0) return false;
    return server.extra_copy_queue_size() == 0;
  };
  while (!all_issued()) {
    if (server.workunit_issues(kWorkunits / 2) == 0 &&
        server.workunit_issues(kWorkunits / 2 - 1) > 0)
      now = 100.0;
    const auto a = server.request_work(device++, now);
    ASSERT_TRUE(a.has_value());
    live.push_back(a->result_id);
  }

  std::mt19937_64 rng(20070502);
  const auto take = [&](std::vector<std::uint64_t>& from) {
    const std::size_t i = rng() % from.size();
    const std::uint64_t id = from[i];
    from[i] = from.back();
    from.pop_back();
    return id;
  };
  const auto report = [&](std::uint64_t id) {
    const std::uint32_t wu = server.result(id).workunit_index;
    const bool was_done = server.workunit_state(wu) == WorkunitState::kDone;
    ResultReport r = ok_report();
    const std::uint64_t fate = rng() % 8;
    r.computation_error = fate == 0;
    r.silent_error = fate == 1;  // fails a quorum comparison
    const ResultState state = server.report_result(id, now, r);
    oracle.changed();
    if (r.computation_error && !was_done) oracle.reissued(wu);
    if (!r.computation_error && state == ResultState::kInvalid) {
      oracle.reissued(wu);  // a quorum mismatch restarts the quorum
      oracle.reissued(wu);
    }
  };

  std::size_t picks = 0;
  for (int step = 0; step < 20000 && !server.complete(); ++step) {
    const std::uint64_t action = rng() % 16;
    if (action < 8) {
      const std::optional<std::uint32_t> want = oracle.next();
      const auto got = server.request_work(device++, now);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (!got) continue;
      ASSERT_EQ(got->workunit.id, *want) << "step " << step;
      live.push_back(got->result_id);
      ++picks;
    } else if (action < 12) {
      if (!live.empty()) report(take(live));
    } else if (action < 13) {
      if (live.empty()) continue;
      const std::uint64_t id = take(live);
      now = std::max(now, server.result_deadline(id));
      ASSERT_TRUE(server.handle_deadline(id, now));
      oracle.changed();
      const std::uint32_t wu = server.result(id).workunit_index;
      if (server.workunit_state(wu) != WorkunitState::kDone)
        oracle.reissued(wu);
      late.push_back(id);
    } else if (action < 14) {
      if (!late.empty()) report(take(late));
    } else {
      now += 1.0;
    }
  }
  EXPECT_TRUE(server.complete());
  EXPECT_GT(picks, 300u);
  EXPECT_GT(oracle.rebuilds(), 100u);
  EXPECT_GT(server.counters().quorum_mismatches, 0u);
  EXPECT_GT(server.counters().results_timed_out, 0u);
}

}  // namespace
}  // namespace hcmd::server
