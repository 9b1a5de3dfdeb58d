#include "docking/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

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

const SweepCase kSweepCases[] = {
    {40, 25, 0},   {40, 25, 1},   {200, 80, 2},  {200, 80, 3},
    {650, 120, 4}, {650, 120, 5}, {1500, 60, 6},
};

ReducedProtein sweep_receptor(const SweepCase& c) {
  return proteins::generate_protein(1, c.receptor_atoms, 1.3, 61);
}

ReducedProtein sweep_ligand(const SweepCase& c) {
  return proteins::generate_protein(2, c.ligand_atoms, 1.0, 62);
}

/// Four poses spread from deep overlap to fully outside the receptor box
/// (the factor 2.5 pushes some ligand atoms beyond cutoff range).
std::vector<Dof6> sweep_poses(const SweepCase& c,
                              const ReducedProtein& receptor,
                              const EnergyParams& params) {
  util::Rng rng(4000 + static_cast<std::uint64_t>(c.pose_seed));
  const double reach = 2.5 * receptor.bounding_radius() + params.cutoff;
  std::vector<Dof6> poses(4);
  for (Dof6& pose : poses) {
    pose.x = rng.uniform(-1.0, 1.0) * reach;
    pose.y = rng.uniform(-1.0, 1.0) * reach;
    pose.z = rng.uniform(-1.0, 1.0) * reach;
    pose.alpha = rng.uniform(0.0, 6.28);
    pose.beta = rng.uniform(0.0, 3.14);
    pose.gamma = rng.uniform(0.0, 6.28);
  }
  return poses;
}

class EngineEquivalenceSweep
    : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineEquivalenceSweep, MatchesFreeSweep) {
  const SweepCase c = GetParam();
  const auto receptor = sweep_receptor(c);
  const auto ligand = sweep_ligand(c);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);
  DockingEngine::Scratch scratch = engine.make_scratch();

  for (const Dof6& pose : sweep_poses(c, receptor, params)) {
    const auto reference = interaction_energy(receptor, ligand,
                                              pose.to_transform(), params);
    expect_energies_near(reference, engine.energy(pose.to_transform(), scratch),
                         1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EngineEquivalenceSweep,
                         ::testing::ValuesIn(kSweepCases));

// --- kernel variants --------------------------------------------------------
//
// Every variant of both cell-list kernels must give bit-equal energies and
// equal pair counts on the same inputs, so which variant ran never shows in
// a result. The x86-64-v3 variant runs against the baseline one through
// energy() (the scalar kernel) and through energy_batch() (the scalar
// kernel for a 1-wide tile, the batched kernel for a wider one).

// The same test of the CPU as the engine's, written out independently.
bool cpu_runs_x86_64_v3() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
#if defined(__clang__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
#else
  return __builtin_cpu_supports("x86-64-v3");
#endif
#else
  return false;
#endif
}

TEST(KernelVariants, EnginesRunX86_64_v3WhereTheCpuDoes) {
  const auto receptor = proteins::generate_protein(1, 60, 1.0, 71);
  const auto ligand = proteins::generate_protein(2, 30, 1.0, 72);
  const EnergyParams params;
  const bool v3 = cpu_runs_x86_64_v3();
  EXPECT_TRUE(kernel_variant_supported(KernelVariant::kBaseline));
  EXPECT_EQ(kernel_variant_supported(KernelVariant::kX86_64_v3), v3);
  EXPECT_EQ(fastest_kernel_variant(),
            v3 ? KernelVariant::kX86_64_v3 : KernelVariant::kBaseline);
  EXPECT_EQ(DockingEngine(receptor, ligand, params).kernel_variant(),
            fastest_kernel_variant());
  EXPECT_EQ(DockingEngine(receptor, ligand, params, KernelVariant::kBaseline)
                .kernel_variant(),
            KernelVariant::kBaseline);
  if (!v3) {
    EXPECT_THROW(
        DockingEngine(receptor, ligand, params, KernelVariant::kX86_64_v3),
        hcmd::ConfigError);
  }
  EXPECT_STREQ(kernel_variant_name(KernelVariant::kBaseline), "baseline");
  EXPECT_STREQ(kernel_variant_name(KernelVariant::kX86_64_v3), "x86-64-v3");
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// 12 poses around `centre`, each DOF displaced by `step` Angstrom or
/// `step / 10` radians, both ways: the finite-difference probes of one
/// descent step, which energy_batch() evaluates as one 12-wide tile. A
/// probe-sized step lands every lane in the same cell windows; on a grid
/// of several cells a step of 1 moves some atoms into other cells, so
/// lanes walk different rows (the union walk).
std::vector<Dof6> probes(const Dof6& centre, double step) {
  std::vector<Dof6> out;
  for (double Dof6::*dof : {&Dof6::x, &Dof6::y, &Dof6::z, &Dof6::alpha,
                            &Dof6::beta, &Dof6::gamma}) {
    const double h = (dof == &Dof6::x || dof == &Dof6::y || dof == &Dof6::z)
                         ? step
                         : step / 10.0;
    for (const double sign : {1.0, -1.0}) {
      Dof6 p = centre;
      p.*dof += sign * h;
      out.push_back(p);
    }
  }
  return out;
}

/// Runs `batches` on a baseline and an x86-64-v3 engine of one couple and
/// requires bit-equal energies and equal counters: every pose alone
/// through energy(), then each batch through one energy_batch() call.
/// Returns how many poses had non-zero energy.
std::size_t expect_variants_agree(const ReducedProtein& receptor,
                                  const ReducedProtein& ligand,
                                  const EnergyParams& params,
                                  const std::vector<std::vector<Dof6>>& batches) {
  const DockingEngine base(receptor, ligand, params, KernelVariant::kBaseline);
  const DockingEngine v3(receptor, ligand, params, KernelVariant::kX86_64_v3);
  DockingEngine::Scratch base_scratch = base.make_scratch();
  DockingEngine::Scratch v3_scratch = v3.make_scratch();
  std::size_t nonzero = 0;
  for (std::size_t k = 0; k < batches.size(); ++k) {
    const std::vector<Dof6>& batch = batches[k];
    std::vector<proteins::RigidTransform> poses;
    for (const Dof6& p : batch) poses.push_back(p.to_transform());

    for (std::size_t b = 0; b < poses.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(k) + " pose " +
                   std::to_string(b) + " alone");
      WorkCounter base_work, v3_work;
      const auto e = base.energy(poses[b], base_scratch, &base_work);
      const auto f = v3.energy(poses[b], v3_scratch, &v3_work);
      EXPECT_EQ(bits(e.lj), bits(f.lj));
      EXPECT_EQ(bits(e.elec), bits(f.elec));
      EXPECT_EQ(base_work.inspected_pairs, v3_work.inspected_pairs);
      EXPECT_EQ(base_work.within_cutoff_pairs, v3_work.within_cutoff_pairs);
      if (e.lj != 0.0 || e.elec != 0.0) ++nonzero;
    }

    DockingEngine::BatchScratch base_bs = base.make_batch_scratch(poses.size());
    DockingEngine::BatchScratch v3_bs = v3.make_batch_scratch(poses.size());
    std::vector<InteractionEnergy> base_out(poses.size()), v3_out(poses.size());
    base.energy_batch(poses.data(), poses.size(), base_bs, base_out.data());
    v3.energy_batch(poses.data(), poses.size(), v3_bs, v3_out.data());
    for (std::size_t b = 0; b < poses.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(k) + " lane " +
                   std::to_string(b));
      EXPECT_EQ(bits(base_out[b].lj), bits(v3_out[b].lj));
      EXPECT_EQ(bits(base_out[b].elec), bits(v3_out[b].elec));
      EXPECT_EQ(base_bs.inspected[b], v3_bs.inspected[b]);
      EXPECT_EQ(base_bs.within[b], v3_bs.within[b]);
    }
  }
  return nonzero;
}

// Skips where there is no second variant to compare: a build for another
// target, or a CPU without AVX2.
class CrossVariant : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kernel_variant_supported(KernelVariant::kX86_64_v3))
      GTEST_SKIP() << "this build or CPU has no x86-64-v3 kernels";
  }
};

class KernelVariantSweep : public CrossVariant,
                           public ::testing::WithParamInterface<SweepCase> {};

// The sweep's couples: each sweep pose alone (a 1-wide tile), then a
// tight and a loose 12-wide tile at contact distance. The loose tile's
// lanes inspect different pair counts on the 650- and 1500-atom couples.
TEST_P(KernelVariantSweep, BitEqualAcrossVariants) {
  const SweepCase c = GetParam();
  const auto receptor = sweep_receptor(c);
  const auto ligand = sweep_ligand(c);
  const EnergyParams params;
  std::vector<std::vector<Dof6>> batches;
  for (const Dof6& pose : sweep_poses(c, receptor, params))
    batches.push_back({pose});
  Dof6 contact;
  contact.x = 0.6 * receptor.bounding_radius();
  contact.alpha = 0.3;
  contact.beta = 0.2;
  batches.push_back(probes(contact, 1e-3));
  batches.push_back(probes(contact, 1.0));
  EXPECT_GT(expect_variants_agree(receptor, ligand, params, batches), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelVariantSweep,
                         ::testing::ValuesIn(kSweepCases));

TEST_F(CrossVariant, LigandOutsideTheReceptorGrid) {
  const auto receptor = proteins::generate_protein(1, 200, 1.2, 73);
  const auto ligand = proteins::generate_protein(2, 50, 1.0, 74);
  const EnergyParams params;
  Dof6 far;
  far.x = receptor.bounding_radius() + ligand.bounding_radius() +
          3.0 * params.cutoff;
  far.y = -0.5 * params.cutoff;
  EXPECT_EQ(expect_variants_agree(receptor, ligand, params,
                                  {{far}, probes(far, 1e-3)}),
            0u);
}

TEST_F(CrossVariant, EmptyReceptor) {
  const ReducedProtein receptor;
  const auto ligand = proteins::generate_protein(2, 40, 1.0, 75);
  const Dof6 origin;
  EXPECT_EQ(expect_variants_agree(receptor, ligand, EnergyParams{},
                                  {{origin}, probes(origin, 1e-3)}),
            0u);
}

TEST_F(CrossVariant, PairsClampedAtMinDistance) {
  const auto receptor = proteins::generate_protein(1, 300, 1.0, 76);
  const auto ligand = proteins::generate_protein(2, 60, 1.0, 77);
  EnergyParams params;
  params.min_distance = 2.0;
  // The ligand sits on the receptor's centre: deep overlap.
  Dof6 overlap;
  overlap.alpha = 0.4;
  std::size_t clamped = 0;
  const proteins::RigidTransform t = overlap.to_transform();
  for (const auto& l : ligand.atoms()) {
    const proteins::Vec3 p = t.apply(l.position);
    for (const auto& r : receptor.atoms()) {
      const double dx = p.x - r.position.x, dy = p.y - r.position.y,
                   dz = p.z - r.position.z;
      if (dx * dx + dy * dy + dz * dz < params.min_distance * params.min_distance)
        ++clamped;
    }
  }
  ASSERT_GT(clamped, 0u);
  EXPECT_GT(expect_variants_agree(receptor, ligand, params,
                                  {{overlap}, probes(overlap, 1e-3),
                                   probes(overlap, 1.0)}),
            0u);
}

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
