// Bit-identity of the batched docking path: energy_batch() and
// minimize_batch() must reproduce the scalar path bit for bit, lane by
// lane. The volunteer grid validates redundant results by comparing files,
// so "fast path" and "reference path" may not differ in a single bit —
// this suite is the contract that lets batch_gamma default to on without
// touching any golden.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "docking/engine.hpp"
#include "docking/maxdo.hpp"
#include "docking/minimizer.hpp"
#include "proteins/generator.hpp"

namespace hcmd::docking {
namespace {

using proteins::Dof6;
using proteins::ReducedProtein;

// Starts spanning the interesting minimiser regimes: lane 0 is fully
// outside the receptor box (zero energy, zero gradient — converges at the
// probe stage), near lanes converge within a moderate budget, and the
// overlapping lanes keep descending until the iteration cap.
std::vector<Dof6> spread_starts(const ReducedProtein& receptor,
                                const ReducedProtein& ligand,
                                std::size_t count, double cutoff) {
  std::vector<Dof6> starts(count);
  const double far = receptor.bounding_radius() + ligand.bounding_radius() +
                     3.0 * cutoff;
  for (std::size_t b = 0; b < count; ++b) {
    Dof6& s = starts[b];
    if (b == 0) {
      s.x = far;  // no receptor atom within cutoff anywhere near this lane
    } else {
      s.x = receptor.bounding_radius() * (0.3 + 0.17 * static_cast<double>(b));
      s.y = 0.4 * static_cast<double>(b);
      s.z = -0.2 * static_cast<double>(b);
      s.alpha = 0.3 * static_cast<double>(b);
      s.beta = 0.15 * static_cast<double>(b);
      s.gamma = 0.5 * static_cast<double>(b);
    }
  }
  return starts;
}

void expect_bitwise_equal(const MinimizationResult& batch,
                          const MinimizationResult& scalar, std::size_t lane) {
  SCOPED_TRACE("lane " + std::to_string(lane));
  EXPECT_EQ(batch.pose.x, scalar.pose.x);
  EXPECT_EQ(batch.pose.y, scalar.pose.y);
  EXPECT_EQ(batch.pose.z, scalar.pose.z);
  EXPECT_EQ(batch.pose.alpha, scalar.pose.alpha);
  EXPECT_EQ(batch.pose.beta, scalar.pose.beta);
  EXPECT_EQ(batch.pose.gamma, scalar.pose.gamma);
  EXPECT_EQ(batch.energy.lj, scalar.energy.lj);
  EXPECT_EQ(batch.energy.elec, scalar.energy.elec);
  EXPECT_EQ(batch.iterations, scalar.iterations);
  EXPECT_EQ(batch.converged, scalar.converged);
}

struct BatchCase {
  std::size_t lanes;
};

// Names the case for ctest, like MaxDoBatchCase's PrintTo below: gtest's
// fallback prints the raw bytes. The "cell_list" prefix (and the
// instantiation's name) date from when a flat backend ran the same cases;
// they are kept so the test IDs stay stable.
void PrintTo(const BatchCase& c, std::ostream* os) {
  *os << "cell_list_lanes" << c.lanes;
}

class BatchBitIdentity : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchBitIdentity, EnergyBatchMatchesScalarPerLane) {
  const BatchCase c = GetParam();
  const auto receptor = proteins::generate_protein(1, 260, 1.2, 81);
  const auto ligand = proteins::generate_protein(2, 55, 1.0, 82);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);

  const auto starts =
      spread_starts(receptor, ligand, c.lanes, params.cutoff);
  std::vector<proteins::RigidTransform> poses(c.lanes);
  for (std::size_t b = 0; b < c.lanes; ++b)
    poses[b] = starts[b].to_transform();

  DockingEngine::BatchScratch bs = engine.make_batch_scratch(c.lanes);
  std::vector<InteractionEnergy> batched(c.lanes);
  WorkCounter batch_work;
  engine.energy_batch(poses.data(), c.lanes, bs, batched.data(),
                      &batch_work);

  DockingEngine::Scratch scratch = engine.make_scratch();
  WorkCounter scalar_work;
  for (std::size_t b = 0; b < c.lanes; ++b) {
    const auto scalar = engine.energy(poses[b], scratch, &scalar_work);
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_EQ(batched[b].lj, scalar.lj);
    EXPECT_EQ(batched[b].elec, scalar.elec);
  }
  EXPECT_EQ(batch_work.evaluations, scalar_work.evaluations);
  EXPECT_EQ(batch_work.pair_terms, scalar_work.pair_terms);
  EXPECT_EQ(batch_work.inspected_pairs, scalar_work.inspected_pairs);
  EXPECT_EQ(batch_work.within_cutoff_pairs, scalar_work.within_cutoff_pairs);
}

TEST_P(BatchBitIdentity, MinimizeBatchMatchesScalarPerLane) {
  const BatchCase c = GetParam();
  const auto receptor = proteins::generate_protein(1, 180, 1.1, 83);
  const auto ligand = proteins::generate_protein(2, 45, 1.0, 84);
  const EnergyParams eparams;
  const DockingEngine engine(receptor, ligand, eparams);
  MinimizerParams params;
  params.max_iterations = 8;

  const auto starts =
      spread_starts(receptor, ligand, c.lanes, eparams.cutoff);

  BatchMinimizerWork batch;
  batch.scratch = engine.make_batch_scratch(12 * c.lanes);
  std::vector<MinimizationResult> batched(c.lanes);
  WorkCounter batch_work;
  minimize_batch(engine, starts, params, batch, batched, &batch_work);

  DockingEngine::Scratch scratch = engine.make_scratch();
  WorkCounter scalar_work;
  bool any_converged = false, any_capped = false;
  for (std::size_t b = 0; b < c.lanes; ++b) {
    const auto scalar =
        minimize(engine, starts[b], params, scratch, &scalar_work);
    expect_bitwise_equal(batched[b], scalar, b);
    any_converged |= scalar.converged;
    any_capped |= !scalar.converged;
  }
  // Lane 0 sits outside the receptor box: zero gradient, immediate
  // convergence. The overlapping lanes must exhaust the budget, so the
  // batch genuinely mixes active and retired lanes.
  EXPECT_TRUE(batched[0].converged);
  EXPECT_EQ(batched[0].iterations, 1u);
  EXPECT_TRUE(any_converged);
  if (c.lanes >= 3) {
    EXPECT_TRUE(any_capped);
  }

  EXPECT_EQ(batch_work.evaluations, scalar_work.evaluations);
  EXPECT_EQ(batch_work.pair_terms, scalar_work.pair_terms);
  EXPECT_EQ(batch_work.inspected_pairs, scalar_work.inspected_pairs);
  EXPECT_EQ(batch_work.within_cutoff_pairs, scalar_work.within_cutoff_pairs);
}

// Probe-style clusters: spread_starts() poses are far apart, so the
// energy tests above mostly exercise width-1 tiles. These poses are
// deliberately within the tiling threshold of each other — a tight
// cluster (identical cell windows, shared-slice walk) and a looser one
// straddling cell boundaries (union walk with per-lane slice masks) —
// so the masked kernels, the tile-wide prune, and the sparse-hit path
// all run against contact-distance geometry.
TEST_P(BatchBitIdentity, ClusteredPosesMatchScalarPerLane) {
  const BatchCase c = GetParam();
  const auto receptor = proteins::generate_protein(1, 260, 1.2, 81);
  const auto ligand = proteins::generate_protein(2, 55, 1.0, 82);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);

  const std::size_t lanes = 2 * c.lanes;
  std::vector<Dof6> starts(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    Dof6& s = starts[b];
    const bool tight = b < c.lanes;
    // Two cluster centres at contact distance; per-lane offsets of the
    // finite-difference-probe scale (tight) or most of a cell edge
    // (loose, so lanes land in different 3x3x3 windows).
    const double h = tight ? 0.02 : 0.45 * params.cutoff / 3.0;
    const double k = static_cast<double>(b % c.lanes);
    s.x = receptor.bounding_radius() * (tight ? 0.35 : 0.55) + h * k;
    s.y = 0.3 + h * (tight ? -k : k);
    s.z = -0.2 + h;
    s.alpha = 0.2 + 0.01 * k;
    s.beta = 0.1;
    s.gamma = 0.4 - 0.01 * k;
  }
  std::vector<proteins::RigidTransform> poses(lanes);
  for (std::size_t b = 0; b < lanes; ++b) poses[b] = starts[b].to_transform();

  DockingEngine::BatchScratch bs = engine.make_batch_scratch(lanes);
  std::vector<InteractionEnergy> batched(lanes);
  WorkCounter batch_work;
  engine.energy_batch(poses.data(), lanes, bs, batched.data(), &batch_work);

  DockingEngine::Scratch scratch = engine.make_scratch();
  WorkCounter scalar_work;
  std::size_t nonzero_tight = 0, nonzero_loose = 0;
  for (std::size_t b = 0; b < lanes; ++b) {
    const auto scalar = engine.energy(poses[b], scratch, &scalar_work);
    SCOPED_TRACE("lane " + std::to_string(b));
    EXPECT_EQ(batched[b].lj, scalar.lj);
    EXPECT_EQ(batched[b].elec, scalar.elec);
    if (scalar.lj != 0.0) ++(b < c.lanes ? nonzero_tight : nonzero_loose);
  }
  // Contact distance: both clusters must actually produce energy terms,
  // or the test would pass trivially on all-pruned pairs.
  EXPECT_GT(nonzero_tight, 0u);
  EXPECT_GT(nonzero_loose, 0u);
  EXPECT_EQ(batch_work.evaluations, scalar_work.evaluations);
  EXPECT_EQ(batch_work.pair_terms, scalar_work.pair_terms);
  EXPECT_EQ(batch_work.inspected_pairs, scalar_work.inspected_pairs);
  EXPECT_EQ(batch_work.within_cutoff_pairs, scalar_work.within_cutoff_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    LanesAndBackends, BatchBitIdentity,
    ::testing::Values(BatchCase{1}, BatchCase{3}, BatchCase{10}));

TEST(BatchScratch, ReusedAcrossVaryingWidths) {
  const auto receptor = proteins::generate_protein(1, 120, 1.0, 85);
  const auto ligand = proteins::generate_protein(2, 30, 1.0, 86);
  const EnergyParams params;
  const DockingEngine engine(receptor, ligand, params);
  DockingEngine::Scratch scalar = engine.make_scratch();
  // One scratch sized for the widest batch serves narrower ones too.
  DockingEngine::BatchScratch bs = engine.make_batch_scratch(8);
  for (std::size_t lanes : {8u, 2u, 5u}) {
    std::vector<proteins::RigidTransform> poses(lanes);
    for (std::size_t b = 0; b < lanes; ++b) {
      Dof6 pose;
      pose.x = receptor.bounding_radius() * 0.5 + static_cast<double>(b);
      poses[b] = pose.to_transform();
    }
    std::vector<InteractionEnergy> out(lanes);
    engine.energy_batch(poses.data(), lanes, bs, out.data());
    for (std::size_t b = 0; b < lanes; ++b) {
      const auto ref = engine.energy(poses[b], scalar);
      EXPECT_EQ(out[b].lj, ref.lj);
      EXPECT_EQ(out[b].elec, ref.elec);
    }
  }
}

// ---------------------------------------------------------------------------
// MaxDo: batch_gamma may not perturb a single checkpoint byte.

std::string checkpoint_bytes(const MaxDoCheckpoint& cp) {
  std::ostringstream os;
  cp.write(os);
  return os.str();
}

struct MaxDoBatchCase {
  std::uint32_t gamma_steps;
};

// Names the case in the test list (and so in ctest's discovered names);
// gtest's fallback prints the struct's raw bytes. Prefixed like BatchCase.
void PrintTo(const MaxDoBatchCase& c, std::ostream* os) {
  *os << "cell_list_gamma" << c.gamma_steps;
}

class MaxDoBatchGamma : public ::testing::TestWithParam<MaxDoBatchCase> {
 protected:
  ReducedProtein receptor = proteins::generate_protein(1, 60, 1.0, 71);
  ReducedProtein ligand = proteins::generate_protein(2, 35, 1.1, 72);

  MaxDoParams base_params() const {
    MaxDoParams p;
    p.minimizer.max_iterations = 4;
    p.positions.spacing = 12.0;
    p.gamma_steps = GetParam().gamma_steps;
    return p;
  }

  std::string run_to_bytes(const MaxDoParams& params,
                           const MaxDoTask& task) const {
    MaxDoProgram program(receptor, ligand, params);
    MaxDoCheckpoint cp;
    EXPECT_EQ(program.run(task, cp), RunStatus::kCompleted);
    return checkpoint_bytes(cp);
  }
};

TEST_P(MaxDoBatchGamma, CheckpointBytesMatchScalarGammaLoop) {
  const MaxDoTask task{0, 2, 0, 8};
  MaxDoParams batched = base_params();
  batched.batch_gamma = true;
  MaxDoParams scalar = base_params();
  scalar.batch_gamma = false;
  EXPECT_EQ(run_to_bytes(batched, task), run_to_bytes(scalar, task));
}

TEST_P(MaxDoBatchGamma, InterruptResumeUnderBatchingMatchesScalar) {
  const MaxDoTask task{0, 3, 0, 6};
  MaxDoParams scalar = base_params();
  scalar.batch_gamma = false;
  MaxDoCheckpoint full;
  MaxDoProgram(receptor, ligand, scalar).run(task, full);

  MaxDoParams batched = base_params();
  batched.batch_gamma = true;
  MaxDoProgram program(receptor, ligand, batched);
  MaxDoCheckpoint resumed;
  int positions_done = 0;
  const RunStatus status = program.run(task, resumed, [&positions_done] {
    return ++positions_done >= 1;  // interrupt after the 1st position
  });
  ASSERT_EQ(status, RunStatus::kInterrupted);

  std::stringstream ss;
  resumed.write(ss);
  MaxDoCheckpoint restored = MaxDoCheckpoint::read(ss);
  EXPECT_EQ(program.run(task, restored), RunStatus::kCompleted);
  EXPECT_EQ(checkpoint_bytes(restored), checkpoint_bytes(full));
}

TEST_P(MaxDoBatchGamma, WorkCountersMatchScalarGammaLoop) {
  const MaxDoTask task{0, 2, 0, 6};
  MaxDoParams batched = base_params();
  batched.batch_gamma = true;
  MaxDoParams scalar = base_params();
  scalar.batch_gamma = false;
  MaxDoProgram pb(receptor, ligand, batched);
  MaxDoProgram ps(receptor, ligand, scalar);
  MaxDoCheckpoint a, b;
  pb.run(task, a);
  ps.run(task, b);
  EXPECT_EQ(pb.work().evaluations, ps.work().evaluations);
  EXPECT_EQ(pb.work().pair_terms, ps.work().pair_terms);
  EXPECT_EQ(pb.work().inspected_pairs, ps.work().inspected_pairs);
  EXPECT_EQ(pb.work().within_cutoff_pairs, ps.work().within_cutoff_pairs);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndGammas, MaxDoBatchGamma,
    ::testing::Values(MaxDoBatchCase{1}, MaxDoBatchCase{3},
                      MaxDoBatchCase{10}));

}  // namespace
}  // namespace hcmd::docking
