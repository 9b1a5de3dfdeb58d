#include "docking/minimizer.hpp"

#include <gtest/gtest.h>

#include "proteins/generator.hpp"

namespace hcmd::docking {
namespace {

using proteins::Dof6;
using proteins::ReducedProtein;

struct Fixture {
  ReducedProtein receptor = proteins::generate_protein(1, 60, 1.0, 11);
  ReducedProtein ligand = proteins::generate_protein(2, 40, 1.1, 12);
  EnergyParams energy;
  MinimizerParams params;

  Dof6 start() const {
    Dof6 d;
    d.x = receptor.bounding_radius() + ligand.bounding_radius() + 4.0;
    return d;
  }

  /// Minimises `lig` from `from`; the engine's nominal pair counts are the
  /// paper's n1 * n2 cost law.
  MinimizationResult run(const ReducedProtein& lig, const Dof6& from,
                         WorkCounter* work = nullptr) const {
    const DockingEngine engine(receptor, lig, energy);
    DockingEngine::Scratch scratch = engine.make_scratch();
    return minimize(engine, from, params, scratch, work);
  }
  MinimizationResult run(WorkCounter* work = nullptr) const {
    return run(ligand, start(), work);
  }
};

TEST(Minimizer, NeverIncreasesEnergy) {
  Fixture f;
  const double initial =
      interaction_energy(f.receptor, f.ligand, f.start().to_transform(),
                         f.energy)
          .total();
  const MinimizationResult res = f.run();
  EXPECT_LE(res.energy.total(), initial + 1e-9);
}

TEST(Minimizer, ImprovesFromSeparatedStart) {
  Fixture f;
  const double initial =
      interaction_energy(f.receptor, f.ligand, f.start().to_transform(),
                         f.energy)
          .total();
  const MinimizationResult res = f.run();
  EXPECT_LT(res.energy.total(), initial);
}

TEST(Minimizer, Deterministic) {
  Fixture f;
  const auto a = f.run();
  const auto b = f.run();
  EXPECT_EQ(a.energy.total(), b.energy.total());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.pose.x, b.pose.x);
  EXPECT_EQ(a.pose.gamma, b.pose.gamma);
}

TEST(Minimizer, RespectsIterationBudget) {
  Fixture f;
  f.params.max_iterations = 5;
  const auto res = f.run();
  EXPECT_LE(res.iterations, 5u);
}

TEST(Minimizer, WorkCounterCountsEvaluations) {
  Fixture f;
  f.params.max_iterations = 3;
  WorkCounter work;
  f.run(&work);
  // Per iteration: 12 gradient evals + 1 trial; +1 initial evaluation.
  EXPECT_GE(work.evaluations, 1u + 3u);
  EXPECT_LE(work.evaluations, 1u + 3u * 13u);
  EXPECT_EQ(work.pair_terms, work.evaluations * f.receptor.size() *
                                 f.ligand.size());
}

TEST(Minimizer, WorkScalesWithProteinSizes) {
  Fixture f;
  WorkCounter small_work;
  f.run(&small_work);
  const ReducedProtein big = proteins::generate_protein(3, 120, 1.0, 13);
  Dof6 start;
  start.x = f.receptor.bounding_radius() + big.bounding_radius() + 4.0;
  WorkCounter big_work;
  f.run(big, start, &big_work);
  // Pair terms per evaluation scale with n1 * n2.
  EXPECT_EQ(small_work.pair_terms % (60u * 40u), 0u);
  EXPECT_EQ(big_work.pair_terms % (60u * 120u), 0u);
}

TEST(Minimizer, ConvergedFlagOnTightTolerance) {
  Fixture f;
  f.params.energy_tolerance = 1e6;  // any accepted step converges
  const auto res = f.run();
  EXPECT_TRUE(res.converged);
}

TEST(Minimizer, RejectsBadParams) {
  Fixture f;
  f.params.max_iterations = 0;
  EXPECT_THROW(f.run(), std::logic_error);
  f.params = MinimizerParams{};
  f.params.shrink = 1.5;
  EXPECT_THROW(f.run(), std::logic_error);
}

class MinimizerStartSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinimizerStartSweep, EnergyNonIncreasingFromAnyStart) {
  Fixture f;
  proteins::OrientationGrid grid;
  const Dof6 orient =
      grid.orientation(static_cast<std::uint32_t>(GetParam()) %
                           proteins::kNumRotationCouples,
                       static_cast<std::uint32_t>(GetParam()) %
                           proteins::kNumGammaSteps);
  Dof6 start = orient;
  start.x = f.receptor.bounding_radius() + 12.0;
  start.y = 2.0 * GetParam();
  const double initial =
      interaction_energy(f.receptor, f.ligand, start.to_transform(), f.energy)
          .total();
  const auto res = f.run(f.ligand, start);
  EXPECT_LE(res.energy.total(), initial + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Starts, MinimizerStartSweep,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace hcmd::docking
