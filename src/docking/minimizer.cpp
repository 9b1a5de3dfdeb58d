#include "docking/minimizer.hpp"

#include <array>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace hcmd::docking {

namespace {

constexpr std::array<double proteins::Dof6::*, 6> kDofMembers = {
    &proteins::Dof6::x,     &proteins::Dof6::y,    &proteins::Dof6::z,
    &proteins::Dof6::alpha, &proteins::Dof6::beta, &proteins::Dof6::gamma};

/// Central-difference probes per gradient (+delta and -delta per DOF):
/// one lane's probes fill exactly one of the engine's batched tiles.
constexpr std::size_t kProbes = 2 * kDofMembers.size();
static_assert(kProbes == DockingEngine::kTileLanes);

double dof_delta(const MinimizerParams& params, std::size_t k) {
  return k < 3 ? params.translation_delta : params.rotation_delta;
}

/// Builds the steepest-descent trial pose from the central-difference
/// gradient, normalising the translational and rotational blocks separately
/// so the two unit systems move at their own step scales. Returns false
/// when the gradient is exactly zero (the caller marks the descent
/// converged). Shared by the scalar and batch drivers — the arithmetic here
/// is part of the bit-identity contract between them.
bool descend(const proteins::Dof6& pose, const std::array<double, 6>& grad,
             const StepControl& ctrl, proteins::Dof6& trial) {
  double gt = std::sqrt(grad[0] * grad[0] + grad[1] * grad[1] +
                        grad[2] * grad[2]);
  double gr = std::sqrt(grad[3] * grad[3] + grad[4] * grad[4] +
                        grad[5] * grad[5]);
  if (gt == 0.0 && gr == 0.0) return false;
  if (gt == 0.0) gt = 1.0;
  if (gr == 0.0) gr = 1.0;

  trial = pose;
  trial.x -= ctrl.tstep * grad[0] / gt;
  trial.y -= ctrl.tstep * grad[1] / gt;
  trial.z -= ctrl.tstep * grad[2] / gt;
  trial.alpha -= ctrl.rstep * grad[3] / gr;
  trial.beta -= ctrl.rstep * grad[4] / gr;
  trial.gamma -= ctrl.rstep * grad[5] / gr;
  return true;
}

}  // namespace

MinimizationResult minimize(const DockingEngine& engine,
                            const proteins::Dof6& start,
                            const MinimizerParams& params,
                            DockingEngine::Scratch& scratch,
                            WorkCounter* work) {
  HCMD_ASSERT(params.max_iterations > 0);
  HCMD_ASSERT(params.shrink > 0.0 && params.shrink < 1.0);

  // Counters accumulate in a local and flush once per minimisation so the
  // caller's pointer is not touched (or branched on) in the hot loop.
  WorkCounter local;
  const auto eval = [&](const proteins::Dof6& d, InteractionEnergy* out) {
    const InteractionEnergy e =
        engine.energy(d.to_transform(), scratch, &local);
    if (out != nullptr) *out = e;
    return e.total();
  };

  MinimizationResult result;
  result.pose = start;
  double best = eval(result.pose, &result.energy);

  StepControl ctrl(params);
  std::array<double, 6> grad{};

  for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
    ++result.iterations;

    // Numerical gradient (central differences over the 6 DOF), unless the
    // last trial was rejected and left the pose where `grad` was taken.
    auto& p = result.pose;
    if (!ctrl.gradient_current) {
      for (std::size_t k = 0; k < 6; ++k) {
        const double delta = dof_delta(params, k);
        const double orig = p.*kDofMembers[k];
        p.*kDofMembers[k] = orig + delta;
        const double hi = eval(p, nullptr);
        p.*kDofMembers[k] = orig - delta;
        const double lo = eval(p, nullptr);
        p.*kDofMembers[k] = orig;
        grad[k] = (hi - lo) / (2.0 * delta);
      }
    }

    bool done;
    proteins::Dof6 trial;
    if (!descend(p, grad, ctrl, trial)) {
      done = true;  // exactly zero gradient
    } else {
      InteractionEnergy trial_energy;
      const double trial_total = eval(trial, &trial_energy);
      if (trial_total < best) {
        const double gain = best - trial_total;
        p = trial;
        best = trial_total;
        result.energy = trial_energy;
        done = ctrl.accept(params, gain);
      } else {
        done = ctrl.reject(params);
      }
    }
    if (done) {
      result.converged = true;
      break;
    }
  }
  if (work != nullptr) *work += local;
  return result;
}

void minimize_batch(const DockingEngine& engine,
                    std::span<const proteins::Dof6> starts,
                    const MinimizerParams& params, BatchMinimizerWork& batch,
                    std::span<MinimizationResult> results,
                    WorkCounter* work) {
  HCMD_ASSERT(params.max_iterations > 0);
  HCMD_ASSERT(params.shrink > 0.0 && params.shrink < 1.0);
  HCMD_ASSERT(results.size() == starts.size());
  const std::size_t n_lanes = starts.size();
  if (n_lanes == 0) return;

  WorkCounter local;  // flushed into *work once, after the whole batch

  batch.pose.assign(starts.begin(), starts.end());
  batch.trial.resize(n_lanes);
  batch.grad.resize(n_lanes);
  batch.control.assign(n_lanes, StepControl(params));
  batch.best.resize(n_lanes);
  batch.done.assign(n_lanes, 0);
  batch.poses.resize(kProbes * n_lanes);
  batch.energies.resize(kProbes * n_lanes);
  batch.trial_lane.resize(n_lanes);
  batch.active.resize(n_lanes);
  std::iota(batch.active.begin(), batch.active.end(), 0u);

  // Starting energies: one fused evaluation over all lanes.
  for (std::size_t b = 0; b < n_lanes; ++b) {
    results[b] = MinimizationResult{};
    results[b].pose = starts[b];
    batch.poses[b] = starts[b].to_transform();
  }
  engine.energy_batch(batch.poses.data(), n_lanes, batch.scratch,
                      batch.energies.data(), &local);
  for (std::size_t b = 0; b < n_lanes; ++b) {
    results[b].energy = batch.energies[b];
    batch.best[b] = batch.energies[b].total();
  }

  for (std::uint32_t it = 0;
       it < params.max_iterations && !batch.active.empty(); ++it) {
    // Stage 1: the 12 central-difference probes of every active lane whose
    // gradient is stale, fused into a single batched evaluation. Probe
    // slot order matches the scalar driver (k ascending, +delta then
    // -delta).
    std::size_t np = 0;
    for (const std::uint32_t lane : batch.active) {
      if (batch.control[lane].gradient_current) continue;
      const proteins::Dof6& p = batch.pose[lane];
      for (std::size_t k = 0; k < 6; ++k) {
        const double delta = dof_delta(params, k);
        proteins::Dof6 probe = p;
        probe.*kDofMembers[k] = p.*kDofMembers[k] + delta;
        batch.poses[np++] = probe.to_transform();
        probe.*kDofMembers[k] = p.*kDofMembers[k] - delta;
        batch.poses[np++] = probe.to_transform();
      }
    }
    engine.energy_batch(batch.poses.data(), np, batch.scratch,
                        batch.energies.data(), &local);

    // Gradients and trial poses; zero-gradient lanes converge here and
    // contribute no trial, exactly like the scalar early break. Lanes
    // whose gradient is current took no probe slots.
    std::size_t nt = 0;
    std::size_t base = 0;
    for (const std::uint32_t lane : batch.active) {
      ++results[lane].iterations;
      std::array<double, 6>& grad = batch.grad[lane];
      if (!batch.control[lane].gradient_current) {
        for (std::size_t k = 0; k < 6; ++k) {
          const double hi = batch.energies[base + 2 * k].total();
          const double lo = batch.energies[base + 2 * k + 1].total();
          grad[k] = (hi - lo) / (2.0 * dof_delta(params, k));
        }
        base += kProbes;
      }
      if (!descend(batch.pose[lane], grad, batch.control[lane],
                   batch.trial[lane])) {
        results[lane].converged = true;
        batch.done[lane] = 1;
      } else {
        batch.trial_lane[nt] = lane;
        batch.poses[nt] = batch.trial[lane].to_transform();
        ++nt;
      }
    }

    // Stage 2: the surviving lanes' trial steps, fused likewise.
    if (nt > 0) {
      engine.energy_batch(batch.poses.data(), nt, batch.scratch,
                          batch.energies.data(), &local);
      for (std::size_t t = 0; t < nt; ++t) {
        const std::uint32_t lane = batch.trial_lane[t];
        const double trial_total = batch.energies[t].total();
        bool done;
        if (trial_total < batch.best[lane]) {
          const double gain = batch.best[lane] - trial_total;
          batch.pose[lane] = batch.trial[lane];
          batch.best[lane] = trial_total;
          results[lane].energy = batch.energies[t];
          done = batch.control[lane].accept(params, gain);
        } else {
          done = batch.control[lane].reject(params);
        }
        if (done) {
          results[lane].converged = true;
          batch.done[lane] = 1;
        }
      }
    }

    // Compact the active set (ascending lane order is preserved, keeping
    // the probe slot order deterministic).
    std::size_t keep = 0;
    for (const std::uint32_t lane : batch.active)
      if (!batch.done[lane]) batch.active[keep++] = lane;
    batch.active.resize(keep);
  }

  for (std::size_t b = 0; b < n_lanes; ++b) results[b].pose = batch.pose[b];
  if (work != nullptr) *work += local;
}

}  // namespace hcmd::docking
