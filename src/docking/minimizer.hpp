// Local energy minimisation over the six rigid-body degrees of freedom.
//
// MAXDo performs "multiple energy minimizations with a regular array of
// starting positions and orientations"; this is the per-start minimiser.
// Deterministic (fixed iteration budget, no randomness) so property 1 of
// Section 4.1 — reproducible computing time — holds exactly.
//
// Two drivers share one step-control policy (StepControl), one
// gradient-reuse rule and one trial-step construction, so they cannot
// drift:
//
//  * minimize(): one adaptive-steepest-descent instance. An iteration
//    costs 13 energy evaluations (6 DOF x 2 central differences + the
//    trial) when the pose moved since the last gradient, and 1 (the trial)
//    after a rejected trial, which leaves the pose and so its gradient
//    unchanged.
//  * minimize_batch(): B independent instances advanced in lockstep with
//    per-lane active masks. Each iteration folds the 12 gradient probes of
//    every active lane that needs a fresh gradient into one
//    DockingEngine::energy_batch call and the surviving lanes' trial steps
//    into a second, so the receptor traversal cost is amortised across
//    lanes. Per-lane results are bit-identical to B scalar minimize()
//    calls (the energy lanes are bit-identical and the step-control
//    arithmetic is shared).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "docking/energy.hpp"
#include "docking/engine.hpp"
#include "proteins/geometry.hpp"

namespace hcmd::docking {

struct MinimizerParams {
  /// Maximum outer iterations of adaptive steepest descent.
  std::uint32_t max_iterations = 40;
  /// Initial step sizes.
  double translation_step = 0.8;   ///< Angstrom
  double rotation_step = 0.08;     ///< radians
  /// Finite-difference deltas for the numerical gradient.
  double translation_delta = 0.05;
  double rotation_delta = 0.005;
  /// Stop when an accepted step improves the energy by less than this.
  double energy_tolerance = 1e-4;  ///< kcal/mol
  /// Step shrink factor on rejection / growth factor on acceptance.
  double shrink = 0.5;
  double grow = 1.2;
};

struct MinimizationResult {
  proteins::Dof6 pose;        ///< final degrees of freedom
  InteractionEnergy energy;   ///< energy at `pose`
  std::uint32_t iterations = 0;
  bool converged = false;     ///< true if tolerance reached before budget
};

/// Adaptive step-size state shared by the scalar and batch minimisers: the
/// single source of truth for how steps grow, shrink and decide
/// convergence, and for when the descent's gradient must be recomputed.
/// One instance per descent (per lane in the batch driver).
struct StepControl {
  double tstep = 0.0;  ///< current translation step (Angstrom)
  double rstep = 0.0;  ///< current rotation step (radians)
  /// True while the descent's cached gradient belongs to its current pose.
  /// A rejected trial leaves the pose unchanged, so the next iteration
  /// reuses that gradient and skips its 12 probes; an accepted trial moves
  /// the pose. The reused gradient equals the one the probes would
  /// rebuild, bit for bit, so only the evaluation count changes.
  bool gradient_current = false;

  StepControl() = default;
  explicit StepControl(const MinimizerParams& p)
      : tstep(p.translation_step), rstep(p.rotation_step) {}

  /// Trial accepted: grow both steps; the pose moved, so the gradient is
  /// stale. Returns true when the energy gain fell below the tolerance
  /// (converged).
  bool accept(const MinimizerParams& p, double gain) {
    tstep *= p.grow;
    rstep *= p.grow;
    gradient_current = false;
    return gain < p.energy_tolerance;
  }
  /// Trial rejected: shrink both steps; the pose and its gradient stay.
  /// Returns true when both steps fell below their finite-difference
  /// deltas (converged).
  bool reject(const MinimizerParams& p) {
    tstep *= p.shrink;
    rstep *= p.shrink;
    gradient_current = true;
    return tstep < p.translation_delta && rstep < p.rotation_delta;
  }
};

/// Minimises the interaction energy starting from `start`. Every
/// evaluation (13 per iteration after a move, 1 after a rejected trial)
/// reuses `scratch` for the transformed ligand positions and goes through
/// the engine's cell list. Work performed is accumulated into `work` when
/// non-null (flushed once per minimisation, not per evaluation).
/// Thread-safe when each caller brings its own scratch.
MinimizationResult minimize(const DockingEngine& engine,
                            const proteins::Dof6& start,
                            const MinimizerParams& params,
                            DockingEngine::Scratch& scratch,
                            WorkCounter* work = nullptr);

/// Reusable buffers for minimize_batch(): the engine-side BatchScratch plus
/// the minimiser's fused probe/trial pose buffers and per-lane state.
/// Create one per worker (sized via DockingEngine::make_batch_scratch for
/// 12x the lane count, the widest fused evaluation) and reuse across
/// batches — steady-state minimisation then performs no allocations.
struct BatchMinimizerWork {
  DockingEngine::BatchScratch scratch;
  std::vector<proteins::RigidTransform> poses;  ///< fused probe/trial buffer
  std::vector<InteractionEnergy> energies;
  std::vector<proteins::Dof6> pose;    ///< per-lane current pose
  std::vector<proteins::Dof6> trial;   ///< per-lane trial pose
  std::vector<std::array<double, 6>> grad;  ///< per-lane cached gradient
  std::vector<StepControl> control;
  std::vector<double> best;
  std::vector<std::uint8_t> done;
  std::vector<std::uint32_t> active;      ///< active lane ids, ascending
  std::vector<std::uint32_t> trial_lane;  ///< trial slot -> lane id
};

/// Lockstep batch minimisation of `starts.size()` independent descents.
/// results[b] is bit-identical to minimize(engine, starts[b], params, ...):
/// lanes converge (or exhaust the budget) individually and drop out of the
/// active set; work counters are flushed into `work` once per batch.
void minimize_batch(const DockingEngine& engine,
                    std::span<const proteins::Dof6> starts,
                    const MinimizerParams& params, BatchMinimizerWork& batch,
                    std::span<MinimizationResult> results,
                    WorkCounter* work = nullptr);

}  // namespace hcmd::docking
