#include "docking/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "docking/minimizer.hpp"
#include "proteins/generator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcmd::docking {
namespace {

using proteins::Dof6;
using proteins::ReducedProtein;

void expect_energies_near(const InteractionEnergy& a,
                          const InteractionEnergy& b, double rel) {
  const double scale = std::max({1.0, std::abs(a.lj), std::abs(a.elec)});
  EXPECT_NEAR(a.lj, b.lj, rel * scale);
  EXPECT_NEAR(a.elec, b.elec, rel * scale);
}

TEST(Engine, RejectsNonPositiveCutoff) {
  const auto receptor = proteins::generate_protein(1, 40, 1.0, 51);
  const auto ligand = proteins::generate_protein(2, 30, 1.0, 52);
  EnergyParams params;
  params.cutoff = 0.0;
  EXPECT_THROW(DockingEngine(receptor, ligand, params), hcmd::ConfigError);
}

TEST(Engine, CopiesProteinsIntoSoA) {
  const auto receptor = proteins::generate_protein(1, 120, 1.0, 53);
  const auto ligand = proteins::generate_protein(2, 45, 1.0, 54);
  const DockingEngine engine(receptor, ligand, EnergyParams{});
  EXPECT_EQ(engine.receptor_size(), receptor.size());
  EXPECT_EQ(engine.ligand_size(), ligand.size());
  EXPECT_GE(engine.cell_count(), 1u);
}

TEST(Engine, ScratchReuseGivesIdenticalResults) {
  const auto receptor = proteins::generate_protein(1, 150, 1.0, 55);
  const auto ligand = proteins::generate_protein(2, 50, 1.1, 56);
  const DockingEngine engine(receptor, ligand, EnergyParams{});
  DockingEngine::Scratch scratch = engine.make_scratch();
  Dof6 pose;
  pose.x = receptor.bounding_radius() + 3.0;
  const auto first = engine.energy(pose.to_transform(), scratch);
  // Intervening evaluation at another pose dirties the scratch.
  Dof6 other = pose;
  other.y += 5.0;
  engine.energy(other.to_transform(), scratch);
  const auto again = engine.energy(pose.to_transform(), scratch);
  EXPECT_EQ(first.lj, again.lj);
  EXPECT_EQ(first.elec, again.elec);
}

TEST(Engine, NominalWorkIsBackendIndependent) {
  const auto receptor = proteins::generate_protein(1, 300, 1.2, 57);
  const auto ligand = proteins::generate_protein(2, 60, 1.0, 58);
  const EnergyParams params;
  const DockingEngine cells(receptor, ligand, params);
  Dof6 pose;
  pose.x = receptor.bounding_radius() + 2.0;
  WorkCounter cell_work, reference_work;
  DockingEngine::Scratch cell_scratch = cells.make_scratch();
  cells.energy(pose.to_transform(), cell_scratch, &cell_work);
  interaction_energy(receptor, ligand, pose.to_transform(), params,
                     &reference_work);
  EXPECT_EQ(cell_work.pair_terms, reference_work.pair_terms);
  EXPECT_EQ(cell_work.within_cutoff_pairs,
            reference_work.within_cutoff_pairs);
  EXPECT_LE(cell_work.inspected_pairs, reference_work.inspected_pairs);
}

TEST(CellList, InspectsFarFewerPairsOnLargeReceptors) {
  const auto receptor = proteins::generate_protein(1, 1500, 1.0, 37);
  const auto ligand = proteins::generate_protein(2, 60, 1.0, 38);
  const EnergyParams params;
  const DockingEngine cells(receptor, ligand, params);
  Dof6 pose;
  pose.x = receptor.bounding_radius() + 5.0;
  WorkCounter flat_work, cell_work;
  DockingEngine::Scratch scratch = cells.make_scratch();
  interaction_energy(receptor, ligand, pose.to_transform(), params,
                     &flat_work);
  cells.energy(pose.to_transform(), scratch, &cell_work);
  // Nominal cost-model work is the same as the free sweep's; the pruning
  // win shows in the pairs actually examined. Both evaluate exactly the
  // within-cutoff pairs.
  EXPECT_EQ(cell_work.pair_terms, flat_work.pair_terms);
  EXPECT_LT(cell_work.inspected_pairs, flat_work.inspected_pairs / 2);
  EXPECT_EQ(cell_work.within_cutoff_pairs, flat_work.within_cutoff_pairs);
}

TEST(Engine, PoseFullyOutsideReceptorBoxIsZero) {
  const auto receptor = proteins::generate_protein(1, 100, 1.0, 59);
  const auto ligand = proteins::generate_protein(2, 40, 1.0, 60);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);
  Dof6 pose;
  pose.x = receptor.bounding_radius() + ligand.bounding_radius() +
           3.0 * params.cutoff;
  DockingEngine::Scratch scratch = engine.make_scratch();
  const auto e = engine.energy(pose.to_transform(), scratch);
  EXPECT_DOUBLE_EQ(e.lj, 0.0);
  EXPECT_DOUBLE_EQ(e.elec, 0.0);
}

/// The engine and the free interaction_energy() sweep agree on
/// InteractionEnergy to 1e-9 relative across randomized poses and protein
/// sizes, including poses fully outside the receptor box.
struct SweepCase {
  std::uint32_t receptor_atoms;
  std::uint32_t ligand_atoms;
  int pose_seed;
};

// Names the case for ctest: gtest's fallback prints the struct's raw bytes.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "receptor" << c.receptor_atoms << "_ligand" << c.ligand_atoms
      << "_seed" << c.pose_seed;
}

class EngineEquivalenceSweep
    : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineEquivalenceSweep, MatchesFreeSweep) {
  const SweepCase c = GetParam();
  const auto receptor =
      proteins::generate_protein(1, c.receptor_atoms, 1.3, 61);
  const auto ligand = proteins::generate_protein(2, c.ligand_atoms, 1.0, 62);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);
  DockingEngine::Scratch scratch = engine.make_scratch();

  util::Rng rng(4000 + static_cast<std::uint64_t>(c.pose_seed));
  for (int k = 0; k < 4; ++k) {
    Dof6 pose;
    // Spread poses from deep overlap to fully outside the receptor box
    // (the factor 2.5 pushes some ligand atoms beyond cutoff range).
    const double reach = 2.5 * receptor.bounding_radius() + params.cutoff;
    pose.x = rng.uniform(-1.0, 1.0) * reach;
    pose.y = rng.uniform(-1.0, 1.0) * reach;
    pose.z = rng.uniform(-1.0, 1.0) * reach;
    pose.alpha = rng.uniform(0.0, 6.28);
    pose.beta = rng.uniform(0.0, 3.14);
    pose.gamma = rng.uniform(0.0, 6.28);

    const auto reference = interaction_energy(receptor, ligand,
                                              pose.to_transform(), params);
    expect_energies_near(reference, engine.energy(pose.to_transform(), scratch),
                         1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, EngineEquivalenceSweep,
    ::testing::Values(SweepCase{40, 25, 0}, SweepCase{40, 25, 1},
                      SweepCase{200, 80, 2}, SweepCase{200, 80, 3},
                      SweepCase{650, 120, 4}, SweepCase{650, 120, 5},
                      SweepCase{1500, 60, 6}));

TEST(EngineMinimize, DeterministicAndImproving) {
  const auto receptor = proteins::generate_protein(1, 90, 1.0, 63);
  const auto ligand = proteins::generate_protein(2, 50, 1.1, 64);
  const DockingEngine engine(receptor, ligand, EnergyParams{});
  Dof6 start;
  start.x = receptor.bounding_radius() + ligand.bounding_radius() + 4.0;
  MinimizerParams params;
  params.max_iterations = 15;

  DockingEngine::Scratch scratch = engine.make_scratch();
  const double start_energy =
      engine.energy(start.to_transform(), scratch).total();
  const MinimizationResult a = minimize(engine, start, params, scratch);
  const MinimizationResult b = minimize(engine, start, params, scratch);
  EXPECT_LE(a.energy.total(), start_energy);
  EXPECT_EQ(a.energy.lj, b.energy.lj);
  EXPECT_EQ(a.energy.elec, b.energy.elec);
  EXPECT_EQ(a.pose.x, b.pose.x);
}

TEST(EngineMinimize, WorkCounterMatchesEvaluationCount) {
  const auto receptor = proteins::generate_protein(1, 60, 1.0, 65);
  const auto ligand = proteins::generate_protein(2, 40, 1.0, 66);
  const DockingEngine engine(receptor, ligand, EnergyParams{});
  Dof6 start;
  start.x = receptor.bounding_radius() + 4.0;
  MinimizerParams params;
  params.max_iterations = 5;
  WorkCounter work;
  DockingEngine::Scratch scratch = engine.make_scratch();
  minimize(engine, start, params, scratch, &work);
  // 1 initial eval + per iteration: 1 trial eval, plus 12 gradient evals
  // unless the previous trial was rejected (never on the first).
  EXPECT_GE(work.evaluations, 1u + 13u);
  EXPECT_LE(work.evaluations, 1u + 13u * 5u);
  EXPECT_EQ(work.pair_terms,
            work.evaluations * receptor.size() * ligand.size());
}

}  // namespace
}  // namespace hcmd::docking
