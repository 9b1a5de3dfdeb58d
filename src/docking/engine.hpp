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
//    ligand positions, reused across evaluations instead of re-allocating
//    per call. The engine itself is immutable after construction and safe
//    to share across threads — each thread brings its own Scratch.
//  * Batched path: energy_batch() evaluates B poses with the pose index as
//    the SIMD lane. Lanes are grouped into tiles of nearby poses (the 12
//    finite-difference probes of one descent step); each tile is
//    transformed into a struct-of-lanes layout (atom i, tile lane b at
//    [i*width + b]) so the inner loop reads contiguous lane arrays with no
//    gathers, and every receptor atom/cell visited is amortised over the
//    tile. A tile of one lane routes through the scalar kernel itself.
//    Vectorisation is across poses, never across atoms: each lane
//    accumulates exactly the scalar path's (ligand atom, receptor atom)
//    term sequence, so batched results are bit-identical to energy() per
//    lane.
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
  /// Per-caller mutable state: world-frame ligand positions. Obtain via
  /// make_scratch() (pre-sized) and reuse across evaluations; energy()
  /// resizes on mismatch, so one Scratch can serve engines of different
  /// ligand sizes.
  struct Scratch {
    std::vector<double> x, y, z;
  };

  /// Per-caller mutable state for the batched path. energy_batch() groups
  /// the poses into tiles of nearby lanes and transforms one tile at a
  /// time into x/y/z in tile-major layout (atom i of tile lane b at
  /// [i * width + b]), so the pose dimension is the contiguous SIMD axis
  /// and the kernel streams exactly the tile's coordinates — no strided
  /// reads across unrelated lanes. Accumulators and counters are per
  /// batch lane. Obtain via make_batch_scratch() pre-sized for the widest
  /// batch a caller will evaluate; energy_batch() re-sizes on mismatch,
  /// so one scratch serves varying batch widths.
  struct BatchScratch {
    std::size_t lanes = 0;  ///< capacity: widest batch sized so far
    std::vector<double> x, y, z;   ///< nl * width of the current tile
    std::vector<double> lj, elec;  ///< per-lane accumulators
    /// Per-lane squared distances for the current pair (the vectorised
    /// distance pass runs for every inspected pair; the expensive term
    /// pass is skipped when no lane is within the cutoff, mirroring the
    /// scalar path's early-out).
    std::vector<double> r2;
    /// Per-lane within-cutoff tallies, accumulated as doubles so the
    /// count rides in the same vector lanes as the energy terms (exact:
    /// counts stay far below 2^53). Converted into `within` per batch.
    std::vector<double> within_acc;
    /// Per-lane pair counters, matching the scalar path's bookkeeping
    /// exactly (summed into the WorkCounter once per batch).
    std::vector<std::uint64_t> inspected, within;
    /// Per-tile-lane clamped 3x3x3 windows and, per (y, z) row of the
    /// union walk, the per-lane fused x-slice bounds.
    std::vector<std::int32_t> wx0, wx1, wy0, wy1, wz0, wz1;
    std::vector<std::uint32_t> row_begin, row_end;
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
  BatchScratch make_batch_scratch(std::size_t lanes) const;

  /// Interaction energy of the ligand placed by `pose`. Thread-safe: all
  /// mutable state lives in `scratch`. Callers must thread a reused
  /// Scratch — there is deliberately no allocating convenience overload.
  InteractionEnergy energy(const proteins::RigidTransform& pose,
                           Scratch& scratch,
                           WorkCounter* work = nullptr) const;

  /// Evaluates `count` poses in lockstep: one cell walk serves all lanes.
  /// out[b] is bit-identical to energy(poses[b], ...) — per-lane
  /// accumulation order matches the scalar path exactly — and counters are
  /// flushed into `work` once per batch, not per pose. Thread-safe with a
  /// per-caller scratch.
  void energy_batch(const proteins::RigidTransform* poses, std::size_t count,
                    BatchScratch& scratch, InteractionEnergy* out,
                    WorkCounter* work = nullptr) const;

 private:
  void build_cell_grid(const std::vector<proteins::PseudoAtom>& atoms);
  std::size_t flat_cell(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }
  // The two cell-list kernels, each in one entry point per variant. The
  // baseline entry point runs the engine's variant: it hands the call to
  // its x86-64-v3 twin (defined in x86-64 builds only) when variant_ asks
  // for it. Both entry points always inline one body, so every variant
  // compiles the same source under its own target ISA (engine.cpp).
  //
  // Scalar kernel over one contiguous world-frame ligand (x/y/z, nl
  // doubles each). Shared verbatim by energy() and by width-1 batch
  // tiles, which is what makes those tiles bit-identical by construction.
  InteractionEnergy accumulate_cells(const double* x, const double* y,
                                     const double* z, std::uint64_t* inspected,
                                     std::uint64_t* within) const;
  InteractionEnergy accumulate_cells_x86_64_v3(
      const double* x, const double* y, const double* z,
      std::uint64_t* inspected, std::uint64_t* within) const;
  inline InteractionEnergy accumulate_cells_body(
      const double* x, const double* y, const double* z,
      std::uint64_t* inspected, std::uint64_t* within) const;
  // Masked kernel over one tile of `width` lanes in tile-major layout
  // (atom i, tile lane b at x[i * width + b]); per-lane accumulators and
  // counters live at scratch index lane0 + b. `prune2` is the squared
  // tile-wide prune radius (cutoff + lane-0 displacement slack): one
  // lane-0 distance beyond it proves every lane is outside the cutoff,
  // so the per-lane passes are skipped wholesale. It walks the union of
  // the tile's windows once with per-lane masks.
  // energy_batch() groups lanes into tiles of nearby poses, so the union
  // stays close to each member's own window; which lanes share a tile
  // cannot affect results (per-lane sums are independent and
  // order-preserving).
  void batch_accumulate_cells(BatchScratch& s, const double* x,
                              const double* y, const double* z,
                              std::size_t lane0, std::size_t width,
                              double prune2) const;
  void batch_accumulate_cells_x86_64_v3(BatchScratch& s, const double* x,
                                        const double* y, const double* z,
                                        std::size_t lane0, std::size_t width,
                                        double prune2) const;
  inline void batch_accumulate_cells_body(BatchScratch& s, const double* x,
                                          const double* y, const double* z,
                                          std::size_t lane0,
                                          std::size_t width,
                                          double prune2) const;

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
