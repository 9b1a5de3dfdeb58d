#include "analysis/progression.hpp"
#include "analysis/projection.hpp"
#include "analysis/speeddown.hpp"

#include <gtest/gtest.h>

#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::analysis {
namespace {

TEST(Speeddown, GrossAndNet) {
  SpeeddownMeasurement m;
  m.reported_runtime_seconds = 543.0;
  m.useful_reference_seconds = 100.0;
  m.redundancy_factor = 1.37;
  EXPECT_NEAR(m.gross_speeddown(), 5.43, 1e-9);
  EXPECT_NEAR(m.net_speeddown(), 5.43 / 1.37, 1e-9);
}

TEST(Speeddown, RequiresPositiveDenominators) {
  SpeeddownMeasurement m;
  m.reported_runtime_seconds = 1.0;
  EXPECT_THROW(m.gross_speeddown(), std::logic_error);
}

TEST(Speeddown, DecompositionMatchesPaperNarrative) {
  // Section 6's explanation: 60% throttle + lowest priority + slower
  // devices + screensaver => ~4x. The default fleet must decompose into a
  // net speed-down near 3.96.
  const volunteer::DeviceParams params;
  const SpeeddownDecomposition d = decompose(params, 2.1);
  EXPECT_LT(d.throttle_factor, 0.7);   // throttle dominates
  EXPECT_LT(d.contention_factor, 1.0);
  EXPECT_LT(d.device_speed_factor, 1.0);  // slower than the Opteron
  // The closed-form decomposition explains most of the 3.96x; checkpoint
  // and interruption losses (only visible in the DES) supply the rest.
  EXPECT_GT(d.predicted_net_speeddown(), 3.0);
  EXPECT_LT(d.predicted_net_speeddown(), 4.8);
}

TEST(Speeddown, UnthrottledFleetIsFaster) {
  volunteer::DeviceParams params;
  params.unthrottled_fraction = 1.0;
  const SpeeddownDecomposition d = decompose(params, 2.1);
  EXPECT_DOUBLE_EQ(d.throttle_factor, 1.0);
  EXPECT_LT(d.predicted_net_speeddown(),
            decompose(volunteer::DeviceParams{}, 2.1)
                .predicted_net_speeddown());
}

TEST(Progression, FractionsComputed) {
  const std::vector<double> total{100.0, 200.0, 700.0};
  const std::vector<double> completed{100.0, 100.0, 0.0};
  const ProgressionSnapshot s =
      make_snapshot("t", 10.0, completed, total);
  EXPECT_DOUBLE_EQ(s.proteins_done_fraction, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(s.computation_done_fraction, 0.2);
  ASSERT_EQ(s.per_protein_fraction.size(), 3u);
  EXPECT_DOUBLE_EQ(s.per_protein_fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(s.per_protein_fraction[1], 0.5);
}

TEST(Progression, Figure7HeadlineShape) {
  // "85% of the proteins were docked, but this represents only 47% of the
  // total computation" — many cheap proteins done, expensive ones pending.
  std::vector<double> total, completed;
  for (int i = 0; i < 100; ++i) {
    const double cost = (i < 85) ? 10.0 : 120.0;
    total.push_back(cost);
    completed.push_back(i < 85 ? cost : 0.0);
  }
  const ProgressionSnapshot s = make_snapshot("x", 0.0, completed, total);
  EXPECT_NEAR(s.proteins_done_fraction, 0.85, 1e-12);
  EXPECT_LT(s.computation_done_fraction, 0.5);
}

TEST(Progression, RejectsMismatchedSizes) {
  EXPECT_THROW(make_snapshot("x", 0.0, {1.0}, {1.0, 2.0}),
               std::logic_error);
}

TEST(Projection, Table3WorkRatio) {
  const ProjectionResult r = project_phase2();
  // (4000^2) / (168^2 * 100) = 5.6689...
  EXPECT_NEAR(r.work_ratio, 5.669, 0.001);
}

TEST(Projection, Table3CpuSeconds) {
  const ProjectionResult r = project_phase2();
  // Table 3: 1,444,998,719,637 seconds.
  EXPECT_NEAR(r.phase2_cpu_seconds, 1.444998719637e12, 1e9);
}

TEST(Projection, NinetyWeeksAtPhase1Rate) {
  // "if it behaves like for the first step, it will take 90 weeks".
  const ProjectionResult r = project_phase2();
  EXPECT_NEAR(r.weeks_at_phase1_rate, 90.0, 1.5);
}

TEST(Projection, Table3VftpFor40Weeks) {
  // "We need 59,730 virtual full-time processors ... within 40 weeks."
  const ProjectionResult r = project_phase2();
  EXPECT_NEAR(r.vftp_needed, 59'730.0, 0.005 * 59'730.0);
}

TEST(Projection, Table3Members) {
  // Table 3: 300,430 members at the Phase I members-per-VFTP ratio.
  const ProjectionResult r = project_phase2();
  EXPECT_NEAR(r.members_needed_project, 300'430.0, 0.005 * 300'430.0);
}

TEST(Projection, GridMembershipNeedsApprox1300000) {
  // "the HCMD project needs 1,300,000 WCG members ... nearly 1,000,000 new
  // volunteers."
  const ProjectionResult r = project_phase2();
  EXPECT_NEAR(r.members_needed_grid, 1.3e6, 0.05 * 1.3e6);
  EXPECT_NEAR(r.new_volunteers_needed, 1.0e6, 0.08 * 1.0e6);
}

TEST(Projection, ScalesWithTargetWeeks) {
  ProjectionInput in;
  in.phase2_target_weeks = 80.0;
  const ProjectionResult r = project_phase2(in);
  EXPECT_NEAR(r.vftp_needed, 59'730.0 / 2.0, 0.01 * 59'730.0);
}

TEST(Projection, RejectsBadInput) {
  ProjectionInput in;
  in.phase1_cpu_seconds = 0.0;
  EXPECT_THROW(project_phase2(in), hcmd::ConfigError);
  in = {};
  in.docking_point_reduction = 0.0;
  EXPECT_THROW(project_phase2(in), hcmd::ConfigError);
  in = {};
  in.hcmd_grid_share = 0.0;
  EXPECT_THROW(project_phase2(in), hcmd::ConfigError);
}

TEST(Projection, Phase1ConsistencyCheck) {
  // The Table 3 Phase I row is internally consistent: cpu = vftp * weeks.
  const ProjectionInput in;
  EXPECT_NEAR(in.phase1_cpu_seconds,
              in.phase1_vftp * in.phase1_weeks * util::kSecondsPerWeek,
              0.01 * in.phase1_cpu_seconds);
}

}  // namespace
}  // namespace hcmd::analysis
