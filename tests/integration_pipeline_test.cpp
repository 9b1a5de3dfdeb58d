// Integration: the packaging stage on a miniature problem — generate
// proteins, calibrate the cost model, and check that the packaged
// workunits slice every receptor's starting positions into MaxDo tasks.
#include <gtest/gtest.h>

#include "docking/maxdo.hpp"
#include "packaging/packager.hpp"
#include "proteins/generator.hpp"
#include "timing/mct_matrix.hpp"

namespace hcmd {
namespace {

struct MiniWorld {
  proteins::Benchmark bench;
  docking::MaxDoParams maxdo;

  MiniWorld() {
    proteins::BenchmarkSpec spec;
    spec.count = 3;
    spec.median_atoms = 25;
    spec.min_atoms = 15;
    spec.max_atoms = 40;
    spec.target_total_nsep = 0;
    spec.outlier_nsep_target = 0;
    bench = proteins::generate_benchmark(spec);
    maxdo.positions.spacing = 14.0;  // few positions per receptor
    // Recompute the Nsep table for the coarse spacing used here.
    bench.position_params = maxdo.positions;
    for (std::size_t i = 0; i < bench.proteins.size(); ++i)
      bench.nsep[i] =
          proteins::nsep_for(bench.proteins[i], maxdo.positions);
  }
};

TEST(Pipeline, PackagingDrivesTaskSlicing) {
  // Workunits from the packager translate 1:1 into MaxDo tasks whose
  // position ranges tile the receptor's Nsep.
  MiniWorld world;
  const auto model = timing::CostModel::calibrated(world.bench, 200.0);
  const auto mct = timing::MctMatrix::from_model(world.bench, model);
  packaging::PackagingConfig cfg;
  cfg.target_hours = 0.05;  // force several workunits per couple
  std::vector<std::uint64_t> covered(world.bench.proteins.size(), 0);
  packaging::for_each_workunit(
      world.bench, mct, cfg, [&](const packaging::Workunit& wu) {
        docking::MaxDoTask task;
        task.isep_begin = wu.isep_begin;
        task.isep_end = wu.isep_end;
        EXPECT_LE(task.isep_end, world.bench.nsep[wu.receptor]);
        covered[wu.receptor] += wu.positions();
      });
  for (std::size_t r = 0; r < covered.size(); ++r)
    EXPECT_EQ(covered[r],
              static_cast<std::uint64_t>(world.bench.nsep[r]) *
                  world.bench.proteins.size());
}

}  // namespace
}  // namespace hcmd
