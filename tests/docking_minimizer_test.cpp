#include "docking/minimizer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

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
  // Per iteration: 1 trial, plus 12 gradient probes unless the previous
  // trial was rejected; +1 initial evaluation.
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

/// The minimiser without gradient reuse, kept as the oracle of the reuse:
/// it rebuilds the gradient from 12 probes on every iteration, also after a
/// rejected trial left the pose unchanged. Its arithmetic and evaluation
/// order are the library drivers', so pose, energy, iterations and
/// convergence must agree bit for bit; only the evaluation count differs.
struct ReferenceDescent {
  MinimizationResult result;
  WorkCounter work;
  /// Rejected trials followed by another iteration: each is a gradient the
  /// library reuses where this reference probes again.
  std::uint64_t repeated_gradients = 0;
};

ReferenceDescent reference_minimize(const DockingEngine& engine,
                                    const Dof6& start,
                                    const MinimizerParams& params) {
  constexpr std::array<double Dof6::*, 6> kDof = {
      &Dof6::x, &Dof6::y, &Dof6::z, &Dof6::alpha, &Dof6::beta, &Dof6::gamma};
  DockingEngine::Scratch scratch = engine.make_scratch();
  ReferenceDescent ref;
  const auto eval = [&](const Dof6& d) {
    return engine.energy(d.to_transform(), scratch, &ref.work);
  };

  MinimizationResult& res = ref.result;
  res.pose = start;
  res.energy = eval(start);
  double best = res.energy.total();
  double tstep = params.translation_step;
  double rstep = params.rotation_step;
  bool last_rejected = false;
  for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
    ++res.iterations;
    if (last_rejected) ++ref.repeated_gradients;

    std::array<double, 6> grad{};
    for (std::size_t k = 0; k < 6; ++k) {
      const double delta =
          k < 3 ? params.translation_delta : params.rotation_delta;
      Dof6 probe = res.pose;
      probe.*kDof[k] = res.pose.*kDof[k] + delta;
      const double hi = eval(probe).total();
      probe.*kDof[k] = res.pose.*kDof[k] - delta;
      const double lo = eval(probe).total();
      grad[k] = (hi - lo) / (2.0 * delta);
    }

    double gt = std::sqrt(grad[0] * grad[0] + grad[1] * grad[1] +
                          grad[2] * grad[2]);
    double gr = std::sqrt(grad[3] * grad[3] + grad[4] * grad[4] +
                          grad[5] * grad[5]);
    if (gt == 0.0 && gr == 0.0) {
      res.converged = true;
      break;
    }
    if (gt == 0.0) gt = 1.0;
    if (gr == 0.0) gr = 1.0;
    Dof6 trial = res.pose;
    trial.x -= tstep * grad[0] / gt;
    trial.y -= tstep * grad[1] / gt;
    trial.z -= tstep * grad[2] / gt;
    trial.alpha -= rstep * grad[3] / gr;
    trial.beta -= rstep * grad[4] / gr;
    trial.gamma -= rstep * grad[5] / gr;

    const InteractionEnergy e = eval(trial);
    bool done;
    if (e.total() < best) {
      const double gain = best - e.total();
      res.pose = trial;
      best = e.total();
      res.energy = e;
      tstep *= params.grow;
      rstep *= params.grow;
      done = gain < params.energy_tolerance;
      last_rejected = false;
    } else {
      tstep *= params.shrink;
      rstep *= params.shrink;
      done = tstep < params.translation_delta && rstep < params.rotation_delta;
      last_rejected = true;
    }
    if (done) {
      res.converged = true;
      break;
    }
  }
  return ref;
}

void expect_same_descent(const MinimizationResult& got,
                         const MinimizationResult& want) {
  EXPECT_EQ(got.pose.x, want.pose.x);
  EXPECT_EQ(got.pose.y, want.pose.y);
  EXPECT_EQ(got.pose.z, want.pose.z);
  EXPECT_EQ(got.pose.alpha, want.pose.alpha);
  EXPECT_EQ(got.pose.beta, want.pose.beta);
  EXPECT_EQ(got.pose.gamma, want.pose.gamma);
  EXPECT_EQ(got.energy.lj, want.energy.lj);
  EXPECT_EQ(got.energy.elec, want.energy.elec);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

TEST(MinimizerGradientReuse, MatchesRecomputingReference) {
  Fixture f;
  const DockingEngine engine(f.receptor, f.ligand, f.energy);

  // Orientations from the MAXDo grid at three separations, from
  // overlapping to just touching: every descent rejects trials on its way
  // and converges after 6 to 28 iterations at the default budget.
  const proteins::OrientationGrid grid;
  std::vector<Dof6> starts;
  for (std::uint32_t i = 0; i < 12; ++i) {
    Dof6 s = grid.orientation((5 * i) % proteins::kNumRotationCouples,
                              i % proteins::kNumGammaSteps);
    s.x = f.receptor.bounding_radius() +
          f.ligand.bounding_radius() * (0.2 + 0.4 * (i % 3));
    s.y = 1.5 * static_cast<double>(i % 4);
    starts.push_back(s);
  }

  // A budget of 10 stops most of them mid-descent instead.
  for (const std::uint32_t budget : {10u, 40u}) {
    SCOPED_TRACE("max_iterations " + std::to_string(budget));
    f.params.max_iterations = budget;
    std::vector<MinimizationResult> batched(starts.size());
    BatchMinimizerWork batch;
    batch.scratch = engine.make_batch_scratch(12 * starts.size());
    WorkCounter batch_work;
    minimize_batch(engine, starts, f.params, batch, batched, &batch_work);

    DockingEngine::Scratch scratch = engine.make_scratch();
    WorkCounter scalar_work;
    std::uint64_t repeated = 0;
    for (std::size_t b = 0; b < starts.size(); ++b) {
      SCOPED_TRACE("start " + std::to_string(b));
      const ReferenceDescent ref =
          reference_minimize(engine, starts[b], f.params);
      WorkCounter work;
      const MinimizationResult res =
          minimize(engine, starts[b], f.params, scratch, &work);
      expect_same_descent(res, ref.result);
      expect_same_descent(batched[b], ref.result);
      // Each reused gradient saves exactly its 12 probes.
      EXPECT_EQ(work.evaluations,
                ref.work.evaluations - 12 * ref.repeated_gradients);
      scalar_work += work;
      repeated += ref.repeated_gradients;
    }
    ASSERT_GT(repeated, 0u) << "the sweep never reuses a gradient";

    EXPECT_EQ(batch_work.evaluations, scalar_work.evaluations);
    EXPECT_EQ(batch_work.pair_terms, scalar_work.pair_terms);
    EXPECT_EQ(batch_work.inspected_pairs, scalar_work.inspected_pairs);
    EXPECT_EQ(batch_work.within_cutoff_pairs,
              scalar_work.within_cutoff_pairs);
  }
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
