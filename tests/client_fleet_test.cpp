#include "client/fleet.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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
    wu.isep_end = 10;  // 10 checkpoint slices per workunit
    wu.reference_seconds = ref_seconds;
    catalog.push_back(wu);
  }
  return catalog;
}

/// Test harness: one epoch-barrier engine + server + schedule. The default
/// single shard reproduces the sequential engine; `shards` exercises the
/// partitioned path through the identical machinery.
struct Harness {
  obs::Registry registry;
  core::WeeklySeries weekly;
  server::ShareSchedule schedule;
  server::ProjectServer project;
  core::ShardEngine engine;

  explicit Harness(std::size_t workunits, double ref_seconds = 2.0 * 3600.0,
                   server::ServerConfig server_cfg = plain_server_config(),
                   server::ShareScheduleParams share = always_hcmd(),
                   AgentConfig agent_cfg = {}, std::uint32_t shards = 1)
      : schedule(share),
        project(make_catalog(workunits, ref_seconds), server_cfg),
        engine(project, schedule, registry, weekly, faults::FaultPlan{},
               util::Rng(2007).fork("faults"),
               make_options(agent_cfg, shards)) {}

  static core::ShardEngineOptions make_options(const AgentConfig& agent_cfg,
                                               std::uint32_t shards) {
    core::ShardEngineOptions o;
    o.shards = shards;
    o.agent = agent_cfg;
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

  /// A fast, reliable, always-on device.
  static volunteer::DeviceSpec reliable_device(std::uint32_t id) {
    volunteer::DeviceSpec d;
    d.id = id;
    d.join_time = 0.0;
    d.speed_factor = 1.0;
    d.throttle = 1.0;
    d.contention = 1.0;
    d.screensaver_overhead = 1.0;
    d.on_mean_seconds = 1e9;  // effectively never detaches
    d.off_mean_seconds = 60.0;
    d.lifetime_seconds = 1e12;
    d.error_rate = 0.0;
    d.abandon_rate = 0.0;
    return d;
  }

  /// Returns the device's global id (the `reported_hcmd_runtimes` key).
  std::uint32_t add(const volunteer::DeviceSpec& spec) {
    engine.add_device(spec, util::Rng(1000 + spec.id));
    return spec.id;
  }

  void run(double until) { engine.run_until(until); }
};

TEST(Fleet, ReliableDeviceDrainsCatalog) {
  Harness h(5);
  h.add(Harness::reliable_device(0));
  h.run(4.0 * kSecondsPerWeek);
  EXPECT_TRUE(h.project.complete());
  EXPECT_EQ(h.project.counters().results_valid, 5u);
  EXPECT_EQ(h.project.counters().results_invalid, 0u);
}

TEST(Fleet, UdReportedRuntimeReflectsEffectiveSpeed) {
  Harness h(1, 2.0 * 3600.0);
  volunteer::DeviceSpec d = Harness::reliable_device(0);
  d.throttle = 0.5;  // effective speed 0.5 -> 4 h wall for a 2 h WU
  const std::uint32_t dev = h.add(d);
  h.run(2.0 * kSecondsPerWeek);
  const auto runtimes = h.engine.reported_hcmd_runtimes(dev);
  ASSERT_EQ(runtimes.size(), 1u);
  EXPECT_NEAR(runtimes[0], 4.0 * 3600.0, 60.0);
}

TEST(Fleet, BoincAccountingReportsCpuTime) {
  Harness h(1, 2.0 * 3600.0);
  volunteer::DeviceSpec d = Harness::reliable_device(0);
  d.speed_factor = 0.5;  // 2 h reference -> 4 h CPU on this device
  d.accounting = volunteer::AccountingMode::kBoincCpuTime;
  const std::uint32_t dev = h.add(d);
  h.run(2.0 * kSecondsPerWeek);
  const auto runtimes = h.engine.reported_hcmd_runtimes(dev);
  ASSERT_EQ(runtimes.size(), 1u);
  EXPECT_NEAR(runtimes[0], 4.0 * 3600.0, 60.0);
}

TEST(Fleet, RuntimeMetricsAccumulate) {
  Harness h(3);
  h.add(Harness::reliable_device(0));
  h.run(2.0 * kSecondsPerWeek);
  h.engine.finalize();  // folds the exact run-time bins into the series
  const auto& hcmd_series = h.weekly.hcmd_runtime;
  const auto& wcg_series = h.weekly.wcg_runtime;
  ASSERT_GT(hcmd_series.size(), 0u);
  double hcmd_total = 0.0, wcg_total = 0.0;
  for (std::size_t i = 0; i < hcmd_series.size(); ++i)
    hcmd_total += hcmd_series.value(i);
  for (std::size_t i = 0; i < wcg_series.size(); ++i)
    wcg_total += wcg_series.value(i);
  // All three workunits at full speed: 6 hours of HCMD runtime.
  EXPECT_NEAR(hcmd_total, 6.0 * kSecondsPerHour, 120.0);
  EXPECT_GE(wcg_total, hcmd_total);  // WCG includes other-project work
}

TEST(Fleet, ShareZeroMeansOtherProjectsOnly) {
  server::ShareScheduleParams share;
  share.control_share = 0.0;
  share.full_share = 0.0;
  Harness h(2, 2.0 * 3600.0, Harness::plain_server_config(), share);
  h.add(Harness::reliable_device(0));
  h.run(1.0 * kSecondsPerWeek);
  h.engine.finalize();
  EXPECT_FALSE(h.project.complete());
  EXPECT_EQ(h.project.counters().results_received, 0u);
  // But the device crunched other-project work the whole time.
  const auto& wcg = h.weekly.wcg_runtime;
  double total = 0.0;
  for (std::size_t i = 0; i < wcg.size(); ++i) total += wcg.value(i);
  EXPECT_GT(total, 0.9 * kSecondsPerWeek);
}

TEST(Fleet, ErrorProneDeviceProducesInvalidResults) {
  Harness h(10);
  volunteer::DeviceSpec d = Harness::reliable_device(0);
  d.error_rate = 1.0;  // every result invalid
  h.add(d);
  h.run(1.0 * kSecondsPerWeek);
  EXPECT_FALSE(h.project.complete());
  EXPECT_GT(h.project.counters().results_invalid, 0u);
  EXPECT_EQ(h.project.counters().results_valid, 0u);
}

TEST(Fleet, InterruptionsLoseCheckpointProgress) {
  // A choppy device takes more wall time per workunit than its effective
  // speed alone implies: partial positions are recomputed after each
  // interruption.
  const double ref = 8.0 * 3600.0;  // 8 h reference, 10 checkpoint slices
  Harness smooth(1, ref);
  volunteer::DeviceSpec ds = Harness::reliable_device(0);
  const std::uint32_t smooth_dev = smooth.add(ds);
  smooth.run(6.0 * kSecondsPerWeek);

  Harness choppy(1, ref);
  volunteer::DeviceSpec dc = Harness::reliable_device(0);
  dc.on_mean_seconds = 2.0 * 3600.0;  // interrupts every ~2 h
  dc.off_mean_seconds = 600.0;
  const std::uint32_t choppy_dev = choppy.add(dc);
  choppy.run(6.0 * kSecondsPerWeek);

  const auto smooth_runtimes =
      smooth.engine.reported_hcmd_runtimes(smooth_dev);
  const auto choppy_runtimes =
      choppy.engine.reported_hcmd_runtimes(choppy_dev);
  ASSERT_EQ(smooth_runtimes.size(), 1u);
  ASSERT_EQ(choppy_runtimes.size(), 1u);
  EXPECT_GT(choppy_runtimes[0], smooth_runtimes[0]);
}

TEST(Fleet, DeadDeviceWorkTimesOutAndIsReissued) {
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.deadline = 2.0 * kSecondsPerDay;
  Harness h(1, 20.0 * 3600.0, cfg);
  volunteer::DeviceSpec mortal = Harness::reliable_device(0);
  mortal.lifetime_seconds = 2.0 * 3600.0;  // dies early, holding the WU
  h.add(mortal);
  volunteer::DeviceSpec survivor = Harness::reliable_device(1);
  survivor.join_time = 3.0 * kSecondsPerDay;  // joins after the deadline
  h.add(survivor);
  h.run(8.0 * kSecondsPerWeek);
  EXPECT_TRUE(h.project.complete());
  EXPECT_EQ(h.project.counters().results_timed_out, 1u);
}

TEST(Fleet, LongPauseLeadsToLateRedundantUpload) {
  server::ServerConfig cfg = Harness::plain_server_config();
  cfg.deadline = 1.0 * kSecondsPerDay;
  AgentConfig agent_cfg;
  agent_cfg.long_pause_mean_weeks = 1.0;
  Harness h(1, 10.0 * 3600.0, cfg, Harness::always_hcmd(), agent_cfg);
  volunteer::DeviceSpec pauser = Harness::reliable_device(0);
  pauser.abandon_rate = 1.0;  // always long-pauses mid-workunit
  h.add(pauser);
  volunteer::DeviceSpec helper = Harness::reliable_device(1);
  helper.join_time = 2.0 * kSecondsPerDay;
  h.add(helper);
  h.run(30.0 * kSecondsPerWeek);
  EXPECT_TRUE(h.project.complete());
  const auto& c = h.project.counters();
  EXPECT_EQ(c.results_timed_out, 1u);
  // The paused device eventually uploaded: 2 results received, 1 useful.
  EXPECT_EQ(c.results_received, 2u);
  EXPECT_EQ(c.results_redundant, 1u);
}

TEST(Fleet, UsefulResultMetricsMatchServerCounters) {
  Harness h(4);
  h.add(Harness::reliable_device(0));
  h.run(3.0 * kSecondsPerWeek);
  const auto& useful = h.weekly.useful_results;
  double total = 0.0;
  for (std::size_t i = 0; i < useful.size(); ++i) total += useful.value(i);
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(h.project.counters().results_valid));
}

TEST(Fleet, MultipleDevicesShareTheCatalog) {
  Harness h(20, 1.0 * 3600.0);
  for (std::uint32_t i = 0; i < 4; ++i)
    h.add(Harness::reliable_device(i));
  h.run(2.0 * kSecondsPerWeek);
  EXPECT_TRUE(h.project.complete());
  // Every device got some work.
  for (std::uint32_t d = 0; d < 4; ++d)
    EXPECT_GT(h.engine.reported_hcmd_runtimes(d).size(), 0u);
}

TEST(Fleet, EngineRejectsDeviceIdsOutOfOrder) {
  // The barrier delivers device gid's answers to local index gid / K of
  // shard gid % K, so ids must arrive densely and in order.
  Harness h(4, 1.0 * 3600.0, Harness::plain_server_config(),
            Harness::always_hcmd(), AgentConfig{}, 2);
  h.add(Harness::reliable_device(0));
  EXPECT_THROW(h.add(Harness::reliable_device(2)), std::logic_error);
  h.add(Harness::reliable_device(1));
  EXPECT_EQ(h.engine.device_count(), 2u);
}

TEST(Fleet, RuntimesByDeviceConcatenatesPerDeviceChronologically) {
  // Two interleaved devices: the shared receive-order buffer must come back
  // out grouped by device, chronological within each device — the exact
  // order the old per-agent vectors concatenated to.
  Harness h(8, 1.0 * 3600.0);
  const std::uint32_t a = h.add(Harness::reliable_device(0));
  const std::uint32_t b = h.add(Harness::reliable_device(1));
  h.run(2.0 * kSecondsPerWeek);
  const auto by_a = h.engine.reported_hcmd_runtimes(a);
  const auto by_b = h.engine.reported_hcmd_runtimes(b);
  ASSERT_GT(by_a.size(), 0u);
  ASSERT_GT(by_b.size(), 0u);
  std::vector<double> expected = by_a;
  expected.insert(expected.end(), by_b.begin(), by_b.end());
  EXPECT_EQ(h.engine.runtimes_by_device(), expected);
}

TEST(Fleet, ShardedHarnessMatchesSequentialExactly) {
  // The same four devices split over three shards must reproduce the
  // single-shard run result for result: the engine's ordering keys are all
  // built from shard-count-independent quantities.
  Harness seq(12, 1.0 * 3600.0);
  Harness par(12, 1.0 * 3600.0, Harness::plain_server_config(),
              Harness::always_hcmd(), AgentConfig{}, /*shards=*/3);
  obs::Tracer seq_trace(tests::workunit_trace());
  obs::Tracer par_trace(tests::workunit_trace());
  seq.project.set_instruments(&seq_trace, nullptr);
  par.project.set_instruments(&par_trace, nullptr);
  for (auto* h : {&seq, &par}) {
    for (std::uint32_t i = 0; i < 4; ++i)
      h->add(Harness::reliable_device(i));
    h->run(2.0 * kSecondsPerWeek);
  }
  EXPECT_EQ(par.engine.shard_count(), 3u);
  const auto& a = seq.project.counters();
  const auto& b = par.project.counters();
  EXPECT_EQ(a.results_sent, b.results_sent);
  EXPECT_EQ(a.results_received, b.results_received);
  EXPECT_EQ(a.results_valid, b.results_valid);
  EXPECT_EQ(seq.engine.runtimes_by_device(), par.engine.runtimes_by_device());
  for (std::uint64_t i = 0; i < a.results_sent; ++i)
    EXPECT_DOUBLE_EQ(seq.project.result(i).sent_time,
                     par.project.result(i).sent_time);
  // Every return, with its time and final state, in the same order.
  ASSERT_EQ(seq_trace.dropped(), 0u);
  ASSERT_EQ(par_trace.dropped(), 0u);
  EXPECT_EQ(tests::wu_returns(seq_trace).size(), a.results_received);
  EXPECT_EQ(tests::wu_returns(seq_trace), tests::wu_returns(par_trace));
}

TEST(Fleet, EveryRequestIsAnsweredWhenRunUntilReturns) {
  // Shards apply the barrier's answers lazily, before they next advance;
  // run_until must still hand back an engine in which no device waits for
  // an answer, so that observers between runs see what the serial replay
  // decided.
  for (const std::uint32_t shards : {1u, 3u}) {
    Harness h(3000, 1.0 * 3600.0, Harness::plain_server_config(),
              Harness::always_hcmd(), AgentConfig{}, shards);
    for (std::uint32_t i = 0; i < 24; ++i) {
      volunteer::DeviceSpec d = Harness::reliable_device(i);
      d.on_mean_seconds = 3.0 * 3600.0;  // re-attaches, and asks, often
      d.off_mean_seconds = 1800.0;
      h.add(d);
    }
    int answered_steps = 0;
    std::uint64_t requests = 0;
    for (int hour = 1; hour <= 72; ++hour) {
      h.run(hour * kSecondsPerHour);
      std::size_t waiting = 0;
      for (std::uint32_t s = 0; s < h.engine.shard_count(); ++s)
        waiting += h.engine.fleet(s).awaiting_reply();
      EXPECT_EQ(waiting, 0u) << shards << " shards, hour " << hour;
      const std::uint64_t total = h.registry.total(metric::kWorkRequests);
      if (total > requests) ++answered_steps;
      requests = total;
    }
    EXPECT_GT(answered_steps, 36) << shards << " shards";
  }
}

}  // namespace
}  // namespace hcmd::client
