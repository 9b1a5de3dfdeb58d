#include "faults/plan.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "faults/schedule.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcmd::faults {
namespace {

constexpr double kHour = 3600.0;

TEST(FaultPlan, DefaultPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_NO_THROW(plan.validate());
}

TEST(FaultPlan, EachKnobEnables) {
  {
    FaultPlan p;
    p.outages.push_back({0.0, kHour});
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.corruption_rate = 0.01;
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.loss_rate = 0.01;
    EXPECT_TRUE(p.enabled());
  }
  {
    FaultPlan p;
    p.straggler_fraction = 0.1;
    p.straggler_slowdown = 2.0;
    EXPECT_TRUE(p.enabled());
  }
  {
    // Stragglers with a 1.0 slowdown change nothing -> still inert.
    FaultPlan p;
    p.straggler_fraction = 0.1;
    EXPECT_FALSE(p.enabled());
  }
  {
    FaultPlan p;
    p.churn_spikes.push_back({kHour, 0.5});
    EXPECT_TRUE(p.enabled());
  }
}

TEST(FaultPlan, ParserReadsEveryKey) {
  const FaultPlan p = parse_fault_plan(
      "# comment line\n"
      "outage = 10 20\n"
      "outage = 1 2   # trailing comment\n"
      "corruption_rate = 0.25\n"
      "loss_rate = 0.125\n"
      "straggler_fraction = 0.5\n"
      "straggler_slowdown = 3\n"
      "saboteur_fraction = 0.01\n"
      "saboteur_corruption_rate = 0.875\n"
      "churn_spike = 100 0.75\n"
      "backoff_initial_minutes = 10\n"
      "backoff_cap_hours = 2\n"
      "\n");
  ASSERT_EQ(p.outages.size(), 2u);
  // Windows come back sorted by begin time, hours converted to seconds.
  EXPECT_DOUBLE_EQ(p.outages[0].begin_seconds, 1.0 * kHour);
  EXPECT_DOUBLE_EQ(p.outages[0].end_seconds, 2.0 * kHour);
  EXPECT_DOUBLE_EQ(p.outages[1].begin_seconds, 10.0 * kHour);
  EXPECT_DOUBLE_EQ(p.outages[1].end_seconds, 20.0 * kHour);
  EXPECT_DOUBLE_EQ(p.corruption_rate, 0.25);
  EXPECT_DOUBLE_EQ(p.loss_rate, 0.125);
  EXPECT_DOUBLE_EQ(p.straggler_fraction, 0.5);
  EXPECT_DOUBLE_EQ(p.straggler_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(p.saboteur_fraction, 0.01);
  EXPECT_DOUBLE_EQ(p.saboteur_corruption_rate, 0.875);
  ASSERT_EQ(p.churn_spikes.size(), 1u);
  EXPECT_DOUBLE_EQ(p.churn_spikes[0].time_seconds, 100.0 * kHour);
  EXPECT_DOUBLE_EQ(p.churn_spikes[0].death_fraction, 0.75);
  EXPECT_DOUBLE_EQ(p.backoff_initial_seconds, 600.0);
  EXPECT_DOUBLE_EQ(p.backoff_cap_seconds, 2.0 * kHour);
  EXPECT_TRUE(p.enabled());
}

TEST(FaultPlan, ParserRejectsGarbage) {
  EXPECT_THROW(parse_fault_plan("frobnicate = 1\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("corruption_rate = banana\n"),
               ParseError);
  EXPECT_THROW(parse_fault_plan("outage = 10\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("churn_spike = 1 2 3\n"), ParseError);
  EXPECT_THROW(parse_fault_plan("no equals sign here\n"), ParseError);
}

TEST(FaultPlan, ValidateRejectsOutOfDomain) {
  {
    FaultPlan p;
    p.corruption_rate = 1.5;
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    FaultPlan p;
    p.loss_rate = -0.1;
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    FaultPlan p;
    p.straggler_slowdown = 0.5;
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    FaultPlan p;
    p.outages.push_back({kHour, kHour});  // empty window
    EXPECT_THROW(p.validate(), ConfigError);
  }
  {
    FaultPlan p;
    p.backoff_initial_seconds = 600.0;
    p.backoff_cap_seconds = 60.0;  // cap below initial
    EXPECT_THROW(p.validate(), ConfigError);
  }
}

TEST(FaultPlan, PresetsResolveAndUnknownThrows) {
  const auto& names = fault_preset_names();
  ASSERT_GE(names.size(), 2u);
  for (const std::string& name : names) {
    EXPECT_TRUE(is_fault_preset(name));
    EXPECT_TRUE(fault_preset(name).enabled()) << name;
  }
  EXPECT_FALSE(is_fault_preset("no-such-preset"));
  EXPECT_THROW(fault_preset("no-such-preset"), ConfigError);
  EXPECT_THROW(fault_preset_text("no-such-preset"), ConfigError);
}

// The compiled-in presets and the shipped plan files must stay in lockstep,
// byte for byte — otherwise `--faults outage-weekend` and
// `--faults examples/faults/outage-weekend.faults` could silently diverge.
TEST(FaultPlan, PresetTextMatchesShippedExampleFiles) {
  for (const std::string& name : fault_preset_names()) {
    const std::string path =
        std::string(HCMD_SOURCE_DIR) + "/examples/faults/" + name + ".faults";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing example plan file: " << path;
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), fault_preset_text(name)) << path;
  }
}

TEST(FaultSchedule, DefaultScheduleIsInactive) {
  FaultSchedule s;
  EXPECT_FALSE(s.active());
  EXPECT_FALSE(s.server_down(0.0));
  EXPECT_DOUBLE_EQ(s.slowdown(7), 1.0);
  EXPECT_EQ(s.counters().outage_denied_requests, 0u);
}

TEST(FaultSchedule, OutageWindowsAreHalfOpen) {
  FaultPlan plan;
  plan.outages.push_back({100.0, 200.0});
  plan.outages.push_back({200.0, 300.0});  // back-to-back with the first
  plan.outages.push_back({1000.0, 1100.0});
  FaultSchedule s(plan, util::Rng(42));
  EXPECT_FALSE(s.server_down(99.0));
  EXPECT_TRUE(s.server_down(100.0));   // begin inclusive
  EXPECT_TRUE(s.server_down(299.0));
  EXPECT_FALSE(s.server_down(300.0));  // end exclusive
  // Chained windows are absorbed: an event deferred from inside the first
  // window must land past the second one too.
  EXPECT_DOUBLE_EQ(s.outage_end_after(150.0), 300.0);
  EXPECT_DOUBLE_EQ(s.outage_end_after(1050.0), 1100.0);
  // Up at `now` -> no deferral.
  EXPECT_DOUBLE_EQ(s.outage_end_after(500.0), 500.0);
}

TEST(FaultSchedule, BackoffGrowsAndCaps) {
  FaultPlan plan;
  plan.outages.push_back({0.0, 1.0});  // anything to activate the schedule
  plan.backoff_initial_seconds = 60.0;
  plan.backoff_cap_seconds = 960.0;
  const FaultSchedule s(plan, util::Rng(42));
  util::Rng device_rng(7);
  // Jitter is in [0.75, 1.25), so bands never overlap between attempts.
  const double d0 = s.backoff_delay(0, device_rng);
  EXPECT_GE(d0, 45.0);
  EXPECT_LT(d0, 75.0);
  const double d2 = s.backoff_delay(2, device_rng);
  EXPECT_GE(d2, 180.0);
  EXPECT_LT(d2, 300.0);
  // Far past the cap: 60 * 2^30 >> 960.
  const double d30 = s.backoff_delay(30, device_rng);
  EXPECT_GE(d30, 720.0);
  EXPECT_LT(d30, 1200.0);
}

TEST(FaultSchedule, StragglerMembershipIsDeterministicAndProportional) {
  FaultPlan plan;
  plan.straggler_fraction = 0.25;
  plan.straggler_slowdown = 4.0;
  FaultSchedule a(plan, util::Rng(42));
  FaultSchedule b(plan, util::Rng(42));
  int stragglers = 0;
  for (std::uint32_t dev = 0; dev < 4000; ++dev) {
    EXPECT_EQ(a.is_straggler(dev), b.is_straggler(dev));
    if (a.is_straggler(dev)) {
      ++stragglers;
      EXPECT_DOUBLE_EQ(a.slowdown(dev), 4.0);
    } else {
      EXPECT_DOUBLE_EQ(a.slowdown(dev), 1.0);
    }
  }
  // Hash-based membership over 4000 devices: expect 1000 +- a loose band.
  EXPECT_GT(stragglers, 800);
  EXPECT_LT(stragglers, 1200);
}

}  // namespace
}  // namespace hcmd::faults
