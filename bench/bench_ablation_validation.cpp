// Ablation — validation policy vs science quality.
//
// Redundant computing exists "to identify and reject erroneous results"
// (Section 5.1). This bench injects a realistic hazard the range check
// cannot see — a small fixed subpopulation of devices producing silently
// corrupt results, declared in the fault plan so every corrupt result is
// counted — and compares validation policies on the two axes that matter:
// how much corruption reaches the science archive, and how much volunteer
// capacity the policy burns (redundancy factor / campaign length).
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

int main() {
  using namespace hcmd;

  auto base_config = [] {
    core::CampaignConfig config;
    config.scale = 0.02;
    // The hazard: 3 % of devices silently corrupt 15 % of their results.
    config.faults.saboteur_fraction = 0.03;
    config.faults.saboteur_corruption_rate = 0.15;
    // Start from a bare server (no phase-I quorum period) so each policy's
    // effect is isolated.
    config.server.validation.quorum2_until = 0.0;
    config.server.validation.spot_check_fraction = 0.0;
    return config;
  };

  struct Row {
    const char* name;
    core::CampaignReport report;
  };
  std::vector<Row> rows;

  {
    auto config = base_config();
    rows.push_back({"range check only", core::run_campaign(config)});
  }
  {
    auto config = base_config();
    config.server.validation.spot_check_fraction = 0.27;
    rows.push_back({"uniform 27% spot check", core::run_campaign(config)});
  }
  {
    auto config = base_config();
    config.server.validation.adaptive = true;
    rows.push_back({"adaptive replication", core::run_campaign(config)});
  }
  {
    auto config = base_config();
    config.server.validation.quorum2_until = 1e12;  // always quorum 2
    config.max_weeks = 60.0;
    rows.push_back({"quorum 2 always", core::run_campaign(config)});
  }

  const auto corrupt_rate = [](const Row& row) {
    const auto& c = row.report.counters;
    return c.workunits_completed
               ? static_cast<double>(c.corrupt_assimilated) /
                     static_cast<double>(c.workunits_completed)
               : 0.0;
  };

  util::Table table("Validation policy ablation (3% corrupting devices)");
  table.header({"policy", "injected", "corrupt assimilated", "leakage",
                "corrupt rate", "mismatches caught", "redundancy", "weeks"});
  for (const auto& row : rows) {
    const auto& c = row.report.counters;
    const auto& v = row.report.validation;
    const double leakage =
        v.corruption_injected
            ? static_cast<double>(v.corruption_assimilated) /
                  static_cast<double>(v.corruption_injected)
            : 0.0;
    table.row({row.name, util::Table::cell(v.corruption_injected),
               util::Table::cell(v.corruption_assimilated),
               util::Table::cell(leakage, 3),
               util::Table::cell(100.0 * corrupt_rate(row), 3) + "%",
               util::Table::cell(c.quorum_mismatches + c.late_mismatches),
               util::Table::cell(row.report.redundancy_factor, 2),
               util::Table::cell(row.report.completion_weeks, 1)});
  }
  std::printf("%s\n", table.render().c_str());
  const Row& none = rows[0];
  const Row& spot = rows[1];
  const Row& adaptive = rows[2];
  const Row& quorum = rows[3];

  std::printf("Reading: quorum-2 buys the cleanest archive at ~2x the "
              "capacity; adaptive\nreplication concentrates the checking on "
              "unproven devices, approaching quorum\nquality at a fraction "
              "of the redundancy — the reason BOINC later adopted it.\n");

  bench::ShapeCheck check;
  check.expect(corrupt_rate(none) > 0.001,
               "without comparison, corruption reaches the archive");
  check.expect(corrupt_rate(quorum) < 0.35 * corrupt_rate(none),
               "quorum 2 removes most of the corruption");
  check.expect(corrupt_rate(adaptive) < 0.6 * corrupt_rate(none),
               "adaptive replication removes a large share of corruption");
  check.expect(adaptive.report.redundancy_factor <
                   quorum.report.redundancy_factor - 0.2,
               "adaptive costs materially less redundancy than quorum 2");
  check.expect(spot.report.counters.late_mismatches > 0,
               "spot checks detect corruption after the fact");
  check.expect(none.report.completed && spot.report.completed &&
                   adaptive.report.completed && quorum.report.completed,
               "all policies complete the campaign");
  check.print_summary();
  return check.exit_code();
}
