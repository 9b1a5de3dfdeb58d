// Interaction energy of the reduced protein model.
//
// E_tot = E_lj + E_elec (kcal/mol), after the paper: "the quality of the
// protein-protein interaction can be evaluated through an interaction
// energy, which is the sum of two contributions; a Lennard-Jones term and an
// electrostatic term". The more negative the total, the stronger the
// predicted interaction.
#pragma once

#include <cstdint>

#include "proteins/geometry.hpp"
#include "proteins/protein.hpp"

namespace hcmd::docking {

/// Energy model parameters.
struct EnergyParams {
  /// Coulomb conversion constant so that q in elementary charges and r in
  /// Angstrom yield kcal/mol.
  double coulomb_constant = 332.0636;
  /// Distance-dependent dielectric eps(r) = dielectric_slope * r, the usual
  /// implicit-solvent choice in reduced models.
  double dielectric_slope = 4.0;
  /// Pair interactions beyond this separation are ignored (Angstrom).
  double cutoff = 24.0;
  /// Soft-core floor: pair distances are clamped to at least this value so
  /// overlapping starts produce large-but-finite repulsion (keeps the
  /// minimiser's numerical gradients finite).
  double min_distance = 0.8;
};

/// Decomposed interaction energy (kcal/mol).
struct InteractionEnergy {
  double lj = 0.0;
  double elec = 0.0;
  double total() const { return lj + elec; }
};

/// Counts energy evaluations and pairwise terms. `evaluations` and
/// `pair_terms` are deterministic functions of the inputs and independent of
/// how pairs are enumerated — the paper's property 1 ("the MAXDo program has
/// a reproducible computing time") holds by construction, and the timing
/// module converts these counters to reference-processor seconds.
struct WorkCounter {
  std::uint64_t evaluations = 0;
  /// Nominal cost-model pair terms: every evaluation contributes exactly
  /// n_receptor * n_ligand, regardless of how many pairs were really
  /// touched. This is the paper's unit of work (the O(n1*n2) sweep).
  std::uint64_t pair_terms = 0;
  /// Pairs actually examined (distance computed). Equals `pair_terms` for
  /// the free interaction_energy() sweep; typically far smaller for the
  /// DockingEngine's cell list — the measure of pruning effectiveness.
  std::uint64_t inspected_pairs = 0;
  /// Pairs within the cutoff that contributed energy terms. The same for
  /// the free sweep and the engine (both evaluate exactly these pairs).
  std::uint64_t within_cutoff_pairs = 0;

  WorkCounter& operator+=(const WorkCounter& o) {
    evaluations += o.evaluations;
    pair_terms += o.pair_terms;
    inspected_pairs += o.inspected_pairs;
    within_cutoff_pairs += o.within_cutoff_pairs;
    return *this;
  }
};

/// Computes the interaction energy of `ligand` placed by `pose` relative to
/// the fixed `receptor` (both in the receptor's frame).
InteractionEnergy interaction_energy(const proteins::ReducedProtein& receptor,
                                     const proteins::ReducedProtein& ligand,
                                     const proteins::RigidTransform& pose,
                                     const EnergyParams& params,
                                     WorkCounter* work = nullptr);

}  // namespace hcmd::docking
