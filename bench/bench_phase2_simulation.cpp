// Section 7, simulated — does the Phase II projection hold up dynamically?
//
// Table 3 is a closed-form extrapolation assuming Phase-I-era efficiency;
// this bench actually *runs* Phase II (BOINC agents, 25 % grid share,
// 5.66x the work) and tests three scenarios:
//   * organic mid-2008 grid, Phase-I-era hardware: the paper's ~90-week
//     "if it behaves like for the first step" regime;
//   * recruited grid (59,730 VFTP at a 25 % share ~ 1.3 M members),
//     Phase-I-era hardware: the paper's ~40-week target;
//   * recruited grid with the hardware-turnover trend left on: Phase II
//     beats the projection — the effect Section 8 anticipates ("observe
//     the trend toward more powerful processors in desktop computers").
#include <cstdio>

#include "bench_common.hpp"
#include "core/phase2.hpp"
#include "util/duration.hpp"

int main() {
  using namespace hcmd;

  core::Phase2Scenario organic_frozen;
  organic_frozen.grid_vftp = core::organic_grid_vftp_2008();
  organic_frozen.freeze_hardware_at_phase1 = true;
  organic_frozen.max_weeks = 160.0;
  organic_frozen.scale = 1.0 / 400.0;

  core::Phase2Scenario recruited_frozen = organic_frozen;
  recruited_frozen.grid_vftp = 59'730.0 / recruited_frozen.grid_share;
  recruited_frozen.max_weeks = 80.0;

  core::Phase2Scenario recruited_trend = recruited_frozen;
  recruited_trend.freeze_hardware_at_phase1 = false;

  std::printf("Phase II simulation (workload calibrated to %.2fx the Phase "
              "I total; BOINC agents; %.0f%% grid share)\n\n",
              organic_frozen.work_ratio,
              100.0 * organic_frozen.grid_share);

  struct Row {
    const char* name;
    double grid_vftp;
    double paper_weeks;  // 0 = no paper counterpart
    core::CampaignReport report;
  };
  Row rows[] = {
      {"organic 2008 grid, phase-I hardware", organic_frozen.grid_vftp,
       90.0, core::run_campaign(core::make_phase2_config(organic_frozen))},
      {"recruited grid (~1.3M members), phase-I hardware",
       recruited_frozen.grid_vftp, 40.0,
       core::run_campaign(core::make_phase2_config(recruited_frozen))},
      {"recruited grid, hardware trend on", recruited_trend.grid_vftp, 0.0,
       core::run_campaign(core::make_phase2_config(recruited_trend))},
  };

  util::Table table("Completion of Phase II");
  table.header({"scenario", "grid VFTP", "HCMD ref-procs",
                "projection (weeks)", "simulated (weeks)"});
  for (const auto& row : rows) {
    const double ref_procs =
        row.report.speeddown.useful_reference_seconds / row.report.scale /
        (row.report.completion_weeks * util::kSecondsPerWeek);
    table.row({row.name, util::Table::cell(std::uint64_t(row.grid_vftp)),
               util::Table::cell(std::uint64_t(ref_procs)),
               row.paper_weeks > 0 ? util::Table::cell(row.paper_weeks, 0)
                                   : "-",
               row.report.completed
                   ? util::Table::cell(row.report.completion_weeks, 1)
                   : std::string(">").append(
                         util::Table::cell(row.report.completion_weeks, 0))});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("Phase II reference total: %s (5.66x Phase I)\n",
              util::format_ydhms(
                  rows[0].report.total_reference_seconds).c_str());
  std::printf("Workunits (h = 4 packaging): %s\n\n",
              util::with_commas(rows[0].report.full_workunit_count).c_str());

  bench::ShapeCheck check;
  for (const auto& row : rows)
    check.expect(row.report.completed,
                 std::string("completes: ") + row.name);
  check.expect_near(rows[0].report.total_reference_seconds,
                    5.669 * 1489.0 * util::kSecondsPerYear, 0.02,
                    "workload calibrated to the Phase II total");
  check.expect_near(rows[0].report.completion_weeks, 90.0, 0.20,
                    "organic grid + phase-I hardware lands in the ~90-week "
                    "regime");
  check.expect_near(rows[1].report.completion_weeks, 40.0, 0.20,
                    "recruited grid + phase-I hardware meets the 40-week "
                    "target");
  check.expect(rows[2].report.completion_weeks <
                   0.95 * rows[1].report.completion_weeks,
               "hardware turnover beats the projection (Section 8's "
               "anticipated trend)");
  check.expect(rows[0].report.completion_weeks >
                   1.8 * rows[1].report.completion_weeks,
               "recruitment shortens Phase II by roughly the projected "
               "factor");
  check.print_summary();
  return check.exit_code();
}
