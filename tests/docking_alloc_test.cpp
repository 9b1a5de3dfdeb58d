// Asserts the minimisers' zero-allocation guarantee: once the caller's
// scratch buffers are sized, minimize() and minimize_batch() perform no
// heap allocation, so MaxDoProgram's reused Workspace makes every start
// of a workunit allocation-free.
// Counted by alloc_counter.cpp, which replaces the global allocation
// functions for this whole binary.
#include <gtest/gtest.h>

#include <vector>

#include "alloc_counter.hpp"
#include "docking/engine.hpp"
#include "docking/minimizer.hpp"
#include "proteins/generator.hpp"
#include "proteins/starting_positions.hpp"

namespace hcmd::docking {
namespace {

using proteins::Dof6;
using test::AllocationWindow;

struct Fixture {
  proteins::ReducedProtein receptor =
      proteins::generate_protein(1, 120, 1.0, 31);
  proteins::ReducedProtein ligand = proteins::generate_protein(2, 40, 1.1, 32);
  DockingEngine engine{receptor, ligand, EnergyParams{}};
  MinimizerParams params;

  /// The gamma starts of one MAXDo (isep, irot), at contact distance.
  std::vector<Dof6> gamma_starts() const {
    const proteins::OrientationGrid grid;
    std::vector<Dof6> starts;
    for (std::uint32_t ig = 0; ig < proteins::kNumGammaSteps; ++ig) {
      Dof6 s = grid.orientation(3, ig);
      s.x = receptor.bounding_radius() + 0.5 * ligand.bounding_radius();
      starts.push_back(s);
    }
    return starts;
  }
};

TEST(DockingAllocation, SteadyStateMinimizeBatchIsAllocationFree) {
  const Fixture f;
  const std::vector<Dof6> starts = f.gamma_starts();
  std::vector<MinimizationResult> results(starts.size());
  BatchMinimizerWork batch;
  batch.scratch = f.engine.make_batch_scratch(12 * starts.size());
  WorkCounter work;

  // Warm-up: sizes the per-lane buffers for this lane count.
  minimize_batch(f.engine, starts, f.params, batch, results, &work);
  const std::uint64_t warm_evaluations = work.evaluations;

  AllocationWindow window;
  minimize_batch(f.engine, starts, f.params, batch, results, &work);
  EXPECT_EQ(window.count(), 0u) << "minimize_batch allocated in steady state";
  EXPECT_EQ(work.evaluations, 2 * warm_evaluations);
}

TEST(DockingAllocation, ScalarMinimizeIsAllocationFree) {
  const Fixture f;
  const std::vector<Dof6> starts = f.gamma_starts();
  DockingEngine::Scratch scratch = f.engine.make_scratch();
  WorkCounter work;

  AllocationWindow window;
  for (const Dof6& start : starts)
    minimize(f.engine, start, f.params, scratch, &work);
  EXPECT_EQ(window.count(), 0u) << "minimize allocated";
  EXPECT_GT(work.evaluations, 0u);
}

}  // namespace
}  // namespace hcmd::docking
