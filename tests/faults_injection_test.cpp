// End-to-end fault injection through the server/engine/fleet stack: outage
// windows block issue and delivery, corruption is caught by quorum
// validation, losses are recovered by deadline reissue, stragglers slow
// down, churn spikes kill, and an inert schedule changes nothing at all.
#include "faults/schedule.hpp"

#include <gtest/gtest.h>

#include "client/fleet.hpp"
#include "core/shard_engine.hpp"
#include "util/duration.hpp"
#include "wu_returns.hpp"

namespace hcmd::client {
namespace {

using util::kSecondsPerDay;
using util::kSecondsPerHour;
using util::kSecondsPerWeek;

std::vector<packaging::Workunit> make_catalog(std::size_t n,
                                              double ref_seconds) {
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

/// Like client_fleet_test's harness; the engine owns the fault layer (one
/// schedule per shard plus the server-side instance) and schedules the
/// plan's spike/outage events itself, exactly as the campaign layer runs.
struct Harness {
  obs::Registry registry;
  core::WeeklySeries weekly;
  server::ShareSchedule schedule;
  server::ProjectServer project;
  core::ShardEngine engine;

  explicit Harness(const faults::FaultPlan& plan, std::size_t workunits,
                   double ref_seconds = 2.0 * 3600.0,
                   server::ServerConfig server_cfg = plain_server_config(),
                   std::uint32_t shards = 1)
      : schedule(always_hcmd()),
        project(make_catalog(workunits, ref_seconds), server_cfg),
        engine(project, schedule, registry, weekly, plan,
               util::Rng(2007).fork("faults"), make_options(shards)) {}

  /// Faults-free control harness (an inert plan attaches nothing).
  explicit Harness(std::size_t workunits)
      : Harness(faults::FaultPlan{}, workunits) {}

  static core::ShardEngineOptions make_options(std::uint32_t shards) {
    core::ShardEngineOptions o;
    o.shards = shards;
    return o;
  }

  static server::ServerConfig plain_server_config() {
    server::ServerConfig cfg;
    cfg.validation.quorum2_until = 0.0;
    cfg.validation.spot_check_fraction = 0.0;
    cfg.endgame_max_outstanding = 0;
    return cfg;
  }

  static server::ShareScheduleParams always_hcmd() {
    server::ShareScheduleParams p;
    p.control_share = 1.0;
    p.full_share = 1.0;
    return p;
  }

  static volunteer::DeviceSpec reliable_device(std::uint32_t id) {
    volunteer::DeviceSpec d;
    d.id = id;
    d.join_time = 0.0;
    d.speed_factor = 1.0;
    d.throttle = 1.0;
    d.contention = 1.0;
    d.screensaver_overhead = 1.0;
    d.on_mean_seconds = 1e9;
    d.off_mean_seconds = 60.0;
    d.lifetime_seconds = 1e12;
    d.error_rate = 0.0;
    d.abandon_rate = 0.0;
    return d;
  }

  std::uint32_t add(const volunteer::DeviceSpec& spec) {
    engine.add_device(spec, util::Rng(1000 + spec.id));
    return spec.id;
  }

  void run(double until) { engine.run_until(until); }
  faults::FaultCounters fault_counters() const {
    return engine.fault_counters();
  }
};

// An inert plan wired through everything must reproduce the faults-free run
// event for event: same issue times, same receipt times, same counters.
TEST(FaultsInjection, InertScheduleIsBitExact) {
  faults::FaultPlan inert;
  Harness with(inert, 6);
  Harness without(6);
  ASSERT_FALSE(with.engine.faults_active());
  obs::Tracer with_trace(tests::workunit_trace());
  obs::Tracer without_trace(tests::workunit_trace());
  with.project.set_instruments(&with_trace, nullptr);
  without.project.set_instruments(&without_trace, nullptr);
  for (auto* h : {&with, &without}) {
    h->add(Harness::reliable_device(0));
    h->add(Harness::reliable_device(1));
    h->run(4.0 * kSecondsPerWeek);
  }
  const auto& a = with.project.counters();
  const auto& b = without.project.counters();
  EXPECT_EQ(a.results_sent, b.results_sent);
  EXPECT_EQ(a.results_received, b.results_received);
  EXPECT_EQ(a.results_valid, b.results_valid);
  ASSERT_EQ(a.results_sent, b.results_sent);
  for (std::uint64_t i = 0; i < a.results_sent; ++i)
    EXPECT_DOUBLE_EQ(with.project.result(i).sent_time,
                     without.project.result(i).sent_time);
  ASSERT_EQ(with_trace.dropped(), 0u);
  ASSERT_EQ(without_trace.dropped(), 0u);
  EXPECT_EQ(tests::wu_returns(with_trace).size(), a.results_received);
  EXPECT_EQ(tests::wu_returns(with_trace), tests::wu_returns(without_trace));
  EXPECT_EQ(with.fault_counters().outage_denied_requests, 0u);
  EXPECT_EQ(with.fault_counters().lost_results, 0u);
}

TEST(FaultsInjection, OutageBlocksIssueAndDefersDelivery) {
  faults::FaultPlan plan;
  const double begin = 1.0 * kSecondsPerHour;
  const double end = 5.0 * kSecondsPerHour;
  plan.outages.push_back({begin, end});
  plan.backoff_initial_seconds = 5.0 * 60.0;
  plan.backoff_cap_seconds = 30.0 * 60.0;
  Harness h(plan, 8);
  obs::Tracer trace(tests::workunit_trace());
  h.project.set_instruments(&trace, nullptr);
  h.add(Harness::reliable_device(0));
  h.run(2.0 * kSecondsPerWeek);

  // Full recovery: the catalogue still drains after the window.
  EXPECT_TRUE(h.project.complete());
  const auto& c = h.project.counters();
  EXPECT_EQ(c.results_valid, 8u);

  // Zero issues inside the window, and nothing received inside it either
  // (the 2 h workunit finishing mid-outage sits in the client outbox).
  for (std::uint64_t i = 0; i < c.results_sent; ++i) {
    const auto& r = h.project.result(i);
    EXPECT_FALSE(r.sent_time >= begin && r.sent_time < end)
        << "result " << i << " issued mid-outage at " << r.sent_time;
  }
  ASSERT_EQ(trace.dropped(), 0u);
  const std::vector<tests::WuReturn> returns = tests::wu_returns(trace);
  EXPECT_EQ(returns.size(), c.results_received);
  for (const auto& [t, id, state] : returns)
    EXPECT_FALSE(t >= begin && t < end)
        << "result " << id << " received mid-outage at " << t << " (state "
        << state << ")";

  // The device finished a workunit inside the window: its upload was
  // deferred and its next work request denied and backed off.
  const auto f = h.fault_counters();
  EXPECT_GE(f.deferred_uploads, 1u);
  EXPECT_GE(f.backoff_retries, 1u);
  EXPECT_GE(f.outage_denied_requests, 1u);
}

TEST(FaultsInjection, CorruptionIsCaughtByQuorumAndNeverAssimilated) {
  faults::FaultPlan plan;
  plan.corruption_rate = 0.3;
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.validation.quorum2_until = 1e12;  // quorum-2 for the whole run
  Harness h(plan, 20, 2.0 * 3600.0, cfg);
  h.add(Harness::reliable_device(0));
  h.add(Harness::reliable_device(1));
  h.run(8.0 * kSecondsPerWeek);

  EXPECT_TRUE(h.project.complete());
  const auto& c = h.project.counters();
  const auto f = h.fault_counters();
  EXPECT_GT(f.corrupted_results, 0u);
  // Every corrupted return either mismatched a clean partner (quorum
  // mismatch -> extra copy) or arrived after completion; none were accepted.
  EXPECT_GT(c.quorum_mismatches, 0u);
  EXPECT_EQ(c.corrupt_assimilated, 0u);
  EXPECT_EQ(c.results_valid, 20u);
  // Catching the corruption costs extra copies beyond plain quorum-2.
  EXPECT_GT(c.results_sent, 40u);
}

TEST(FaultsInjection, LostResultsAreRecoveredByDeadlineReissue) {
  faults::FaultPlan plan;
  plan.loss_rate = 0.5;
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.deadline = 1.0 * kSecondsPerDay;  // keep the recovery cycle short
  Harness h(plan, 5, 2.0 * 3600.0, cfg);
  h.add(Harness::reliable_device(0));
  h.run(6.0 * kSecondsPerWeek);

  EXPECT_TRUE(h.project.complete());
  const auto& c = h.project.counters();
  const auto f = h.fault_counters();
  EXPECT_GT(f.lost_results, 0u);
  // Each loss is invisible until its deadline passes.
  EXPECT_GE(c.results_timed_out, f.lost_results);
  EXPECT_EQ(c.results_valid, 5u);
}

// Two outages a short gap apart. A device whose first-outage upload is still
// backing off (retries 4.5-7.5 h apart by then) can fetch work in the 2 h
// gap and finish it inside the second outage: the new result displaces the
// older one from the one-slot outbox, and takes over its retry timer.
TEST(FaultsInjection, OutboxDisplacedAcrossCloseOutagesIsLost) {
  faults::FaultPlan plan;
  plan.outages.push_back({1.0 * kSecondsPerHour, 30.0 * kSecondsPerHour});
  plan.outages.push_back({32.0 * kSecondsPerHour, 60.0 * kSecondsPerHour});
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.deadline = 1.0 * kSecondsPerDay;  // keep the recovery cycle short
  Harness h(plan, 64, 2.0 * 3600.0, cfg);
  for (std::uint32_t i = 0; i < 16; ++i) h.add(Harness::reliable_device(i));
  h.run(4.0 * kSecondsPerWeek);

  EXPECT_TRUE(h.project.complete());
  const auto& c = h.project.counters();
  const auto f = h.fault_counters();
  // No loss rate and no deaths: every loss is a displaced outbox result,
  // recovered by its deadline.
  EXPECT_GE(f.lost_results, 1u);
  EXPECT_GE(c.results_timed_out, f.lost_results);
  EXPECT_EQ(c.results_valid, 64u);
}

TEST(FaultsInjection, StragglersRunSlower) {
  faults::FaultPlan plan;
  plan.straggler_fraction = 1.0;  // every device is a straggler
  plan.straggler_slowdown = 4.0;
  Harness h(plan, 1);
  const std::uint32_t dev = h.add(Harness::reliable_device(0));
  h.run(2.0 * kSecondsPerWeek);

  EXPECT_EQ(h.fault_counters().straggler_devices, 1u);
  // A 2 h reference workunit at 4x slowdown reports ~8 h of runtime.
  const auto runtimes = h.engine.reported_hcmd_runtimes(dev);
  ASSERT_GE(runtimes.size(), 1u);
  EXPECT_NEAR(runtimes[0], 8.0 * 3600.0, 600.0);
}

TEST(FaultsInjection, ChurnSpikeKillsAliveDevices) {
  faults::FaultPlan plan;
  plan.churn_spikes.push_back({1.0 * kSecondsPerDay, 1.0});
  Harness h(plan, 1000);
  for (std::uint32_t i = 0; i < 10; ++i)
    h.add(Harness::reliable_device(i));
  // The engine schedules the spike from the plan; running past its time
  // fires the per-shard kills and the single fleet-wide spike note.
  h.run(1.0 * kSecondsPerDay);

  const auto f = h.fault_counters();
  EXPECT_EQ(f.churn_spikes, 1u);
  EXPECT_EQ(f.churn_killed, 10u);

  // Everyone is dead: no further results ever arrive.
  const std::uint64_t received = h.project.counters().results_received;
  h.run(2.0 * kSecondsPerWeek);
  EXPECT_EQ(h.project.counters().results_received, received);
  EXPECT_FALSE(h.project.complete());
}

TEST(FaultsInjection, ShardedChaosMatchesSequentialExactly) {
  // The full fault family at K = 1 vs K = 4: per-device fault streams fork
  // from global ids and the spike/outage events replay in the same merged
  // order, so every counter and result timestamp matches bit for bit.
  faults::FaultPlan plan;
  plan.corruption_rate = 0.1;
  plan.loss_rate = 0.1;
  plan.straggler_fraction = 0.3;
  plan.straggler_slowdown = 3.0;
  plan.outages.push_back({30.0 * kSecondsPerHour, 40.0 * kSecondsPerHour});
  plan.churn_spikes.push_back({2.0 * kSecondsPerDay, 0.4});
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.validation.quorum2_until = 1e12;
  Harness seq(plan, 30, 2.0 * 3600.0, cfg);
  Harness par(plan, 30, 2.0 * 3600.0, cfg, /*shards=*/4);
  obs::Tracer seq_trace(tests::workunit_trace());
  obs::Tracer par_trace(tests::workunit_trace());
  seq.project.set_instruments(&seq_trace, nullptr);
  par.project.set_instruments(&par_trace, nullptr);
  for (auto* h : {&seq, &par}) {
    for (std::uint32_t i = 0; i < 9; ++i)
      h->add(Harness::reliable_device(i));
    h->run(6.0 * kSecondsPerWeek);
  }
  const auto& a = seq.project.counters();
  const auto& b = par.project.counters();
  EXPECT_EQ(a.results_sent, b.results_sent);
  EXPECT_EQ(a.results_received, b.results_received);
  EXPECT_EQ(a.results_valid, b.results_valid);
  EXPECT_EQ(a.results_timed_out, b.results_timed_out);
  EXPECT_EQ(a.quorum_mismatches, b.quorum_mismatches);
  const auto fa = seq.fault_counters();
  const auto fb = par.fault_counters();
  EXPECT_EQ(fa.corrupted_results, fb.corrupted_results);
  EXPECT_EQ(fa.lost_results, fb.lost_results);
  EXPECT_EQ(fa.churn_killed, fb.churn_killed);
  EXPECT_EQ(fa.churn_spikes, fb.churn_spikes);
  EXPECT_EQ(fa.straggler_devices, fb.straggler_devices);
  ASSERT_EQ(a.results_sent, b.results_sent);
  for (std::uint64_t i = 0; i < a.results_sent; ++i)
    EXPECT_DOUBLE_EQ(seq.project.result(i).sent_time,
                     par.project.result(i).sent_time);
  ASSERT_EQ(seq_trace.dropped(), 0u);
  ASSERT_EQ(par_trace.dropped(), 0u);
  EXPECT_EQ(tests::wu_returns(seq_trace).size(), a.results_received);
  EXPECT_EQ(tests::wu_returns(seq_trace), tests::wu_returns(par_trace));
}

}  // namespace
}  // namespace hcmd::client
