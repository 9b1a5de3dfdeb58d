// Integration: conservation invariants of the campaign simulation.
// Whatever the parameters, the result lifecycle must balance and the
// assimilated work must equal the catalogue exactly once.
#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/phase2.hpp"
#include "util/duration.hpp"

namespace hcmd::core {
namespace {

void check_invariants(const CampaignReport& r) {
  const auto& c = r.counters;

  // Lifecycle balance: every received result is in exactly one terminal
  // class (or still held for quorum comparison).
  EXPECT_EQ(c.results_received, c.results_valid + c.results_quorum_extra +
                                    c.results_invalid + c.results_redundant +
                                    c.results_pending);
  if (r.completed) {
    EXPECT_EQ(c.results_pending, 0u);
  }

  // Everything received was sent. (Timed-out instances may still be
  // received later, so sent >= received always, with the gap being
  // never-returned instances.)
  EXPECT_GE(c.results_sent, c.results_received);

  // One canonical result per completed workunit.
  EXPECT_EQ(c.results_valid, c.workunits_completed);

  if (r.completed) {
    // Useful reference work equals the scaled catalogue total exactly.
    // (catalog total = scale-sampled slice of the full workload.)
    EXPECT_GT(c.useful_reference_seconds, 0.0);
    const double catalog_total = c.useful_reference_seconds;
    EXPECT_NEAR(catalog_total * (1.0 / r.scale),
                r.total_reference_seconds,
                0.12 * r.total_reference_seconds);
  }

  // Redundancy accounting is self-consistent.
  if (c.results_valid > 0) {
    EXPECT_NEAR(r.redundancy_factor * static_cast<double>(c.results_valid),
                static_cast<double>(c.results_received),
                1.0);
  }

  // Reported runtime is at least the useful reference work (volunteer
  // processors are never faster than the reference here).
  EXPECT_GE(c.reported_runtime_seconds, c.useful_reference_seconds);

  // Weekly series are non-negative and their totals match the counters.
  double weekly_results = 0.0;
  for (double v : r.results_received_weekly) {
    EXPECT_GE(v, 0.0);
    weekly_results += v;
  }
  // Series are truncated at the completion week; allow the drain-week gap.
  EXPECT_LE(weekly_results * r.scale,
            static_cast<double>(c.results_received) + 0.5);

  // Every corrupt result comes from the fault plan, which counts it, so
  // validation cannot assimilate more corruption than was injected.
  EXPECT_LE(r.validation.corruption_assimilated,
            r.validation.corruption_injected);
}

TEST(Invariants, DefaultCampaign) {
  CampaignConfig config;
  config.scale = 0.01;
  check_invariants(run_campaign(config));
}

TEST(Invariants, NoRedundancyConfiguration) {
  CampaignConfig config;
  config.scale = 0.005;
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  config.devices.result_error_rate = 0.0;
  config.devices.abandon_rate = 0.0;
  const CampaignReport r = run_campaign(config);
  check_invariants(r);
  // With every waste channel closed, late device deaths are the only
  // source of redundancy.
  EXPECT_LT(r.redundancy_factor, 1.1);
  EXPECT_EQ(r.counters.results_invalid, 0u);
}

TEST(Invariants, HighFailureConfiguration) {
  CampaignConfig config;
  config.scale = 0.005;
  config.devices.result_error_rate = 0.10;
  config.devices.abandon_rate = 0.10;
  config.devices.lifetime_mean_days = 90.0;
  config.max_weeks = 60.0;
  const CampaignReport r = run_campaign(config);
  check_invariants(r);
  EXPECT_GT(r.redundancy_factor, 1.3);
}

TEST(Invariants, SilentErrorCampaign) {
  // Silent corruption with adaptive replication: books balance and the
  // oracle counter stays a small fraction of the archive.
  CampaignConfig config;
  config.scale = 0.005;
  config.faults.saboteur_fraction = 0.03;
  config.faults.saboteur_corruption_rate = 0.15;
  config.server.validation.adaptive = true;
  config.max_weeks = 45.0;
  const CampaignReport r = run_campaign(config);
  check_invariants(r);
  EXPECT_TRUE(r.completed);
  EXPECT_LT(static_cast<double>(r.counters.corrupt_assimilated),
            0.01 * static_cast<double>(r.counters.workunits_completed));
}

TEST(Invariants, SilentErrorsNeverAgreeInQuorum) {
  // Silent corruption on every device under quorum 2 throughout: two
  // corrupt copies of one workunit must never validate each other, so
  // nothing corrupt is assimilated.
  CampaignConfig config;
  config.scale = 0.005;
  config.faults.corruption_rate = 0.3;
  config.server.validation.quorum2_until = 1e12;
  config.server.validation.spot_check_fraction = 0.0;
  config.max_weeks = 80.0;
  const CampaignReport r = run_campaign(config);
  check_invariants(r);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.counters.corrupt_assimilated, 0u);
}

TEST(Invariants, Phase2Campaign) {
  Phase2Scenario scenario;
  scenario.proteins_simulated = 60;
  scenario.scale = 1.0 / 1000.0;
  scenario.grid_vftp = 240'000.0;
  check_invariants(run_campaign(make_phase2_config(scenario)));
}

class InvariantSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSeedSweep, HoldAcrossSeeds) {
  CampaignConfig config;
  config.scale = 0.004;
  config.seed = GetParam();
  check_invariants(run_campaign(config));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSeedSweep,
                         ::testing::Values(1ull, 7ull, 99ull, 2026ull));

}  // namespace
}  // namespace hcmd::core
