// DockingEngine: the single evaluation entry point for the minimiser and
// the MAXDo-equivalent program.
//
// The engine owns all per-couple precomputation so the per-pose energy
// evaluation — the repo's dominant cost, called 13 times per minimiser
// iteration after a move and once after a rejected trial — touches only
// flat arrays:
//
//  * SoA atom layout: separate x/y/z/lj_radius/sqrt(lj_epsilon)/charge
//    arrays for receptor and ligand. Storing sqrt(eps) per atom hoists the
//    per-pair std::sqrt of the geometric-mean well depth out of the inner
//    loop (sqrt(e1*e2) == sqrt(e1)*sqrt(e2) up to one ulp), and the
//    contiguous arrays let the compiler vectorise the distance test.
//  * Cell list: the receptor SoA is permuted into cell order (CSR) at
//    construction, so each transformed ligand atom visits only the 27
//    neighbouring cells and every visited cell is a contiguous slice.
//  * Scratch buffer: the caller supplies a Scratch holding the transformed
//    ligand positions and the scalar kernel's hit buffer, reused across
//    evaluations instead of re-allocating per call. The engine itself is
//    immutable after construction and safe to share across threads — each
//    thread brings its own Scratch.
//  * Hit-compacted scalar kernel: for each ligand atom the kernel first
//    computes r^2 for every receptor atom of the 3x3x3 cell window and
//    compacts, without a branch, the within-cutoff pairs (receptor index
//    and r^2, in walk order) into the hit buffer; only those hits then
//    pay the division and the LJ powers, in the same order.
//  * Batched path: energy_batch() evaluates B poses, grouped into tiles of
//    nearby poses of at most kTileLanes lanes (the 12 finite-difference
//    probes of one descent step). A full tile runs one kernel of
//    compile-time width that keeps the lanes' coordinates and
//    accumulators in local fixed arrays and shares one receptor walk
//    behind a lane-0 prune; the rare ligand atom whose lanes' cell windows
//    differ is walked lane by lane in scalar order. Every narrower tile
//    runs lane by lane through energy() itself. Vectorisation is across
//    poses, never across atoms: each lane accumulates exactly the scalar
//    path's (ligand atom, receptor atom) term sequence, so batched results
//    are bit-identical to energy() per lane.
//  * Kernel variants: both cell-list kernels are compiled once per
//    KernelVariant from one source, and each engine picks the fastest
//    variant the CPU runs when it is constructed. The variants are
//    bit-identical, so which one ran never shows in a result.
//
// The engine evaluates exactly the within-cutoff pairs of the free
// interaction_energy() sweep with the same per-pair formulas; totals differ
// only by floating-point summation order and the one-ulp sqrt factorisation
// (see docking_engine_test.cpp for the 1e-9 relative-tolerance sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "docking/energy.hpp"
#include "proteins/geometry.hpp"
#include "proteins/protein.hpp"

namespace hcmd::docking {

/// Code generation of the cell-list kernels. Every build carries the
/// baseline variant. x86-64 builds by GCC or clang also carry an
/// x86-64-v3 variant, whose AVX2 loops are four doubles wide instead of
/// two. FP contraction is off and IEEE vector ops round like their scalar
/// forms, so the variants' results are bit-identical.
enum class KernelVariant : std::uint8_t { kBaseline, kX86_64_v3 };

/// "baseline" or "x86-64-v3".
const char* kernel_variant_name(KernelVariant variant);

/// True when this build carries `variant` and this CPU can run it.
bool kernel_variant_supported(KernelVariant variant);

/// The fastest supported variant, which every engine uses by default.
KernelVariant fastest_kernel_variant();

class DockingEngine {
 public:
  /// Lanes of one batched tile: the 6 DOF x 2 central differences of one
  /// descent step (minimizer.cpp checks its probe count against it).
  static constexpr std::size_t kTileLanes = 12;

  /// Per-caller mutable state: world-frame ligand positions and the scalar
  /// kernel's hit buffer (receptor index and r^2 of each within-cutoff
  /// pair of the current ligand atom; one slot per receptor atom bounds
  /// it). Obtain via make_scratch() (pre-sized) and reuse across
  /// evaluations; energy() resizes on mismatch, so one Scratch can serve
  /// engines of different sizes.
  struct Scratch {
    std::vector<double> x, y, z;
    std::vector<std::uint32_t> hit_j;
    std::vector<double> hit_r2;
  };

  /// Per-caller mutable state for the batched path: one full tile's
  /// world-frame ligands in tile-major layout (atom i of tile lane b at
  /// [i * kTileLanes + b], so the lanes are the contiguous SIMD axis), and
  /// the Scratch through which lanes of narrower tiles run energy(); a
  /// full tile borrows its hit buffer. Obtain via
  /// make_batch_scratch(); energy_batch() re-sizes on mismatch, so one
  /// scratch serves every batch width.
  struct BatchScratch {
    std::vector<double> x, y, z;
    Scratch lane;
  };

  /// Copies both proteins into SoA form; the references need not outlive
  /// the engine. Throws ConfigError for non-positive cutoff or for a
  /// `variant` that kernel_variant_supported() rejects.
  DockingEngine(const proteins::ReducedProtein& receptor,
                const proteins::ReducedProtein& ligand, EnergyParams params,
                KernelVariant variant = fastest_kernel_variant());

  const EnergyParams& params() const { return params_; }
  KernelVariant kernel_variant() const { return variant_; }
  std::size_t receptor_size() const { return rx_.size(); }
  std::size_t ligand_size() const { return lx_.size(); }
  /// Number of cells in the receptor grid.
  std::size_t cell_count() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }

  Scratch make_scratch() const;
  /// A scratch for batches of up to `lanes` poses (any width works; this
  /// only decides whether the tile buffers are allocated up front).
  BatchScratch make_batch_scratch(std::size_t lanes) const;

  /// Interaction energy of the ligand placed by `pose`. Thread-safe: all
  /// mutable state lives in `scratch`. Callers must thread a reused
  /// Scratch — there is deliberately no allocating convenience overload.
  InteractionEnergy energy(const proteins::RigidTransform& pose,
                           Scratch& scratch,
                           WorkCounter* work = nullptr) const;

  /// Evaluates `count` poses; nearby poses share one cell walk per tile.
  /// out[b] is bit-identical to energy(poses[b], ...) — per-lane
  /// accumulation order matches the scalar path exactly — and counters
  /// are flushed into `work` once per batch, not per pose. Thread-safe
  /// with a per-caller scratch.
  void energy_batch(const proteins::RigidTransform* poses, std::size_t count,
                    BatchScratch& scratch, InteractionEnergy* out,
                    WorkCounter* work = nullptr) const;

 private:
  /// The cell of a world-frame point, unclamped: a point outside the
  /// grid gets out-of-range coordinates.
  struct Cell {
    int x, y, z;
  };
  /// A cell's 3x3x3 neighbourhood clamped into the grid; empty when it
  /// lies fully outside.
  struct Window {
    int x0, x1, y0, y1, z0, z1;
    bool empty() const { return x0 > x1 || y0 > y1 || z0 > z1; }
  };

  void build_cell_grid(const std::vector<proteins::PseudoAtom>& atoms);
  std::size_t flat_cell(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }
  Cell cell_of(double x, double y, double z) const;
  Window window_of(Cell c) const;
  void fit(Scratch& scratch) const;
  // Adds ligand atom i, at world-frame (x, y, z), to one lane's sums: its
  // window's fused x-slices in scalar order (z, then y, then j
  // ascending), hit-compacted into `hit_j`/`hit_r2`. Both kernels are
  // built from it, so a lane walked alone is the scalar path by
  // construction.
  inline void atom_terms(std::size_t i, double x, double y, double z,
                         std::uint32_t* hit_j, double* hit_r2, double& lj,
                         double& elec, std::uint64_t& inspected,
                         std::uint64_t& within) const;

  // The two cell-list kernels, each in one entry point per variant. The
  // baseline entry point runs the engine's variant: it hands the call to
  // its x86-64-v3 twin (defined in x86-64 builds only) when variant_ asks
  // for it. Both entry points always inline one body, so every variant
  // compiles the same source under its own target ISA (engine.cpp).
  //
  // Scalar kernel over one contiguous world-frame ligand (x/y/z, nl
  // doubles each), behind energy() and so behind every lane that does
  // not fill a tile.
  InteractionEnergy accumulate_cells(const double* x, const double* y,
                                     const double* z, Scratch& scratch,
                                     std::uint64_t* inspected,
                                     std::uint64_t* within) const;
  InteractionEnergy accumulate_cells_x86_64_v3(
      const double* x, const double* y, const double* z, Scratch& scratch,
      std::uint64_t* inspected, std::uint64_t* within) const;
  inline InteractionEnergy accumulate_cells_body(
      const double* x, const double* y, const double* z, Scratch& scratch,
      std::uint64_t* inspected, std::uint64_t* within) const;
  // Kernel over one full tile of kTileLanes lanes in tile-major layout;
  // writes the lanes' energies to out[0, kTileLanes) and the tile's
  // summed pair counts. `prune2` is the squared tile-wide prune radius
  // (cutoff + displacement slack from lane 0): one lane-0 distance beyond
  // it proves every lane is outside the cutoff. `lane` lends its hit
  // buffer to the per-lane walks.
  void batch_accumulate_cells(const double* x, const double* y,
                              const double* z, double prune2, Scratch& lane,
                              InteractionEnergy* out,
                              std::uint64_t* inspected,
                              std::uint64_t* within) const;
  void batch_accumulate_cells_x86_64_v3(const double* x, const double* y,
                                        const double* z, double prune2,
                                        Scratch& lane, InteractionEnergy* out,
                                        std::uint64_t* inspected,
                                        std::uint64_t* within) const;
  inline void batch_accumulate_cells_body(const double* x, const double* y,
                                          const double* z, double prune2,
                                          Scratch& lane,
                                          InteractionEnergy* out,
                                          std::uint64_t* inspected,
                                          std::uint64_t* within) const;

  EnergyParams params_;
  KernelVariant variant_;

  // Receptor SoA, permuted into cell order so each cell's atoms form a
  // contiguous slice.
  std::vector<double> rx_, ry_, rz_, rrad_, rseps_, rq_;
  // Ligand SoA in the ligand's local frame.
  std::vector<double> lx_, ly_, lz_, lrad_, lseps_, lq_;
  // Max ligand-atom distance from the local origin: bounds how far any
  // atom can move between two poses, used to tile batch lanes by pose
  // proximity.
  double lig_radius_ = 0.0;

  // Cell grid: CSR over the permuted receptor order.
  proteins::Vec3 origin_;
  int nx_ = 1, ny_ = 1, nz_ = 1;
  std::vector<std::uint32_t> cell_start_;
};

}  // namespace hcmd::docking
