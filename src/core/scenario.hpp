// Campaign scenario configuration.
//
// `CampaignConfig` bundles every knob of the Phase I reproduction. The
// defaults reproduce the paper's deployment: the 168-protein benchmark,
// the Table-1-calibrated cost model, ~4 h workunits (Fig. 8's production
// packaging), the December-2006 WCG population, the three-phase priority
// schedule, UD wall-clock accounting with the 60 % throttle, and quorum-2
// validation early in the campaign.
//
// `scale` runs a systematic 1/N sample of the workload on a 1/N fleet:
// every intensive quantity (shares, ratios, durations, distribution shapes)
// is preserved; extensive quantities (result counts, CPU totals) are
// reported both raw and rescaled by 1/scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client/fleet.hpp"
#include "faults/plan.hpp"
#include "packaging/packager.hpp"
#include "proteins/generator.hpp"
#include "server/server.hpp"
#include "server/share_schedule.hpp"
#include "util/calendar.hpp"
#include "volunteer/device.hpp"
#include "volunteer/population.hpp"

namespace hcmd::core {

struct SnapshotSpec {
  std::string label;
  util::CivilDate date;
};

struct CampaignConfig {
  proteins::BenchmarkSpec benchmark;
  /// Table 1 calibration target for the mean Mct entry (seconds).
  double mct_target_mean_seconds = 671.0;
  double cost_noise_sigma = 0.28;

  packaging::PackagingConfig packaging{
      /*.target_hours =*/4.0,
      /*.strategy =*/packaging::SplitStrategy::kPaperFloor};

  /// Fraction of the real workload/fleet simulated (systematic sampling).
  double scale = 0.02;

  volunteer::DeviceParams devices;
  volunteer::PopulationParams population;
  server::ShareScheduleParams share;
  server::ServerConfig server;
  client::AgentConfig agent;

  /// Fault-injection plan (default: inert — no outages, no corruption, no
  /// churn spikes; the run is bit-exact with a faults-free build).
  faults::FaultPlan faults;

  util::CivilDate start_date = util::kHcmdStart;
  /// Hard stop for the simulation (the real campaign took 26 weeks; the
  /// cap only guards against mis-configured runs).
  double max_weeks = 40.0;
  std::uint64_t seed = 2007;

  /// Fleet partitions for the epoch-barrier engine (core/shard_engine.hpp).
  /// Results are bit-identical at any shard count; more shards buy
  /// wall-clock parallelism on big fleets. Must not exceed the device
  /// count (checked at run time once the fleet size is known).
  std::uint32_t shards = 1;

  /// Fig. 7 progression snapshot dates.
  std::vector<SnapshotSpec> snapshots = {
      {"2007-03-20", util::CivilDate{2007, 3, 20}},
      {"2007-04-11", util::CivilDate{2007, 4, 11}},
      {"2007-05-02", util::CivilDate{2007, 5, 2}},
      {"2007-06-11", util::CivilDate{2007, 6, 11}},
  };

  /// Throws ConfigError when values are out of domain.
  void validate() const;
};

}  // namespace hcmd::core
