#include "docking/engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace hcmd::docking {

using proteins::Vec3;

// x86-64 builds by GCC or clang compile each kernel a second time for
// x86-64-v3. The target is a function attribute, never a -march flag: the
// helpers a kernel calls out of line stay baseline code, so no x86-64-v3
// copy of a shared inline function can reach a CPU without AVX2.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HCMD_TARGET_X86_64_V3 __attribute__((target("arch=x86-64-v3")))
#endif

namespace {

#ifdef HCMD_TARGET_X86_64_V3
bool cpu_runs_x86_64_v3() {
  __builtin_cpu_init();  // engines may be built before main()
#if defined(__clang__)
  // Not every clang release knows the level names here, so test the
  // level's extensions that compiled kernel code can use.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi") && __builtin_cpu_supports("bmi2");
#else
  return __builtin_cpu_supports("x86-64-v3");
#endif
}
#endif

}  // namespace

const char* kernel_variant_name(KernelVariant variant) {
  return variant == KernelVariant::kX86_64_v3 ? "x86-64-v3" : "baseline";
}

bool kernel_variant_supported(KernelVariant variant) {
  if (variant == KernelVariant::kBaseline) return true;
#ifdef HCMD_TARGET_X86_64_V3
  static const bool runs = cpu_runs_x86_64_v3();
  return runs;
#else
  return false;
#endif
}

KernelVariant fastest_kernel_variant() {
  return kernel_variant_supported(KernelVariant::kX86_64_v3)
             ? KernelVariant::kX86_64_v3
             : KernelVariant::kBaseline;
}

DockingEngine::DockingEngine(const proteins::ReducedProtein& receptor,
                             const proteins::ReducedProtein& ligand,
                             EnergyParams params, KernelVariant variant)
    : params_(params), variant_(variant) {
  if (!(params_.cutoff > 0.0))
    throw ConfigError("DockingEngine: cutoff must be > 0");
  if (!kernel_variant_supported(variant_))
    throw ConfigError(std::string("DockingEngine: this build or CPU cannot "
                                  "run the ") +
                      kernel_variant_name(variant_) + " kernels");

  const std::size_t nl = ligand.size();
  lx_.reserve(nl);
  ly_.reserve(nl);
  lz_.reserve(nl);
  lrad_.reserve(nl);
  lseps_.reserve(nl);
  lq_.reserve(nl);
  for (const auto& a : ligand.atoms()) {
    const auto& p = a.position;
    lx_.push_back(p.x);
    ly_.push_back(p.y);
    lz_.push_back(p.z);
    lrad_.push_back(a.lj_radius);
    lseps_.push_back(std::sqrt(a.lj_epsilon));
    lq_.push_back(a.charge);
    lig_radius_ = std::max(
        lig_radius_, std::sqrt(p.x * p.x + p.y * p.y + p.z * p.z));
  }

  if (receptor.size() > 0) {
    build_cell_grid(receptor.atoms());
  } else {
    cell_start_.assign(2, 0);  // one empty cell keeps lookups in range
  }
}

[[gnu::always_inline]] inline DockingEngine::Cell DockingEngine::cell_of(
    double x, double y, double z) const {
  const double edge = params_.cutoff;
  return {static_cast<int>(std::floor((x - origin_.x) / edge)),
          static_cast<int>(std::floor((y - origin_.y) / edge)),
          static_cast<int>(std::floor((z - origin_.z) / edge))};
}

[[gnu::always_inline]] inline DockingEngine::Window DockingEngine::window_of(
    Cell c) const {
  // A ligand atom outside the receptor box can still interact with
  // boundary cells; clamp the 3x3x3 window into the grid.
  return {std::max(0, c.x - 1), std::min(nx_ - 1, c.x + 1),
          std::max(0, c.y - 1), std::min(ny_ - 1, c.y + 1),
          std::max(0, c.z - 1), std::min(nz_ - 1, c.z + 1)};
}

void DockingEngine::build_cell_grid(
    const std::vector<proteins::PseudoAtom>& atoms) {
  const double edge = params_.cutoff;
  Vec3 lo = atoms.front().position;
  Vec3 hi = lo;
  for (const auto& a : atoms) {
    lo.x = std::min(lo.x, a.position.x);
    lo.y = std::min(lo.y, a.position.y);
    lo.z = std::min(lo.z, a.position.z);
    hi.x = std::max(hi.x, a.position.x);
    hi.y = std::max(hi.y, a.position.y);
    hi.z = std::max(hi.z, a.position.z);
  }
  origin_ = lo;
  nx_ = std::max(1, static_cast<int>(std::floor((hi.x - lo.x) / edge)) + 1);
  ny_ = std::max(1, static_cast<int>(std::floor((hi.y - lo.y) / edge)) + 1);
  nz_ = std::max(1, static_cast<int>(std::floor((hi.z - lo.z) / edge)) + 1);

  const std::size_t n_cells = static_cast<std::size_t>(nx_) * ny_ * nz_;
  auto cell_index = [&](const Vec3& p) {
    const Cell c = cell_of(p.x, p.y, p.z);
    return flat_cell(std::clamp(c.x, 0, nx_ - 1), std::clamp(c.y, 0, ny_ - 1),
                     std::clamp(c.z, 0, nz_ - 1));
  };

  // Counting sort: CSR offsets, then emit the SoA arrays in cell order so
  // every cell is a contiguous slice of the receptor arrays.
  std::vector<std::uint32_t> counts(n_cells, 0);
  for (const auto& a : atoms) ++counts[cell_index(a.position)];
  cell_start_.assign(n_cells + 1, 0);
  for (std::size_t c = 0; c < n_cells; ++c)
    cell_start_[c + 1] = cell_start_[c] + counts[c];

  const std::size_t nr = atoms.size();
  rx_.resize(nr);
  ry_.resize(nr);
  rz_.resize(nr);
  rrad_.resize(nr);
  rseps_.resize(nr);
  rq_.resize(nr);
  std::vector<std::uint32_t> cursor(cell_start_.begin(),
                                    cell_start_.end() - 1);
  for (const auto& a : atoms) {
    const std::uint32_t slot = cursor[cell_index(a.position)]++;
    rx_[slot] = a.position.x;
    ry_[slot] = a.position.y;
    rz_[slot] = a.position.z;
    rrad_[slot] = a.lj_radius;
    rseps_[slot] = std::sqrt(a.lj_epsilon);
    rq_[slot] = a.charge;
  }
}

void DockingEngine::fit(Scratch& scratch) const {
  const std::size_t nl = lx_.size();
  if (scratch.x.size() != nl) {
    scratch.x.resize(nl);
    scratch.y.resize(nl);
    scratch.z.resize(nl);
  }
  if (scratch.hit_j.size() < rx_.size()) {
    scratch.hit_j.resize(rx_.size());
    scratch.hit_r2.resize(rx_.size());
  }
}

DockingEngine::Scratch DockingEngine::make_scratch() const {
  Scratch s;
  fit(s);
  return s;
}

DockingEngine::BatchScratch DockingEngine::make_batch_scratch(
    std::size_t lanes) const {
  BatchScratch s;
  if (lanes >= kTileLanes) {
    s.x.resize(lx_.size() * kTileLanes);
    s.y.resize(lx_.size() * kTileLanes);
    s.z.resize(lx_.size() * kTileLanes);
  }
  fit(s.lane);
  return s;
}

InteractionEnergy DockingEngine::energy(const proteins::RigidTransform& pose,
                                        Scratch& scratch,
                                        WorkCounter* work) const {
  fit(scratch);
  // Transform the whole ligand once per evaluation (SoA in, SoA out).
  const std::size_t nl = lx_.size();
  const auto& m = pose.rotation.m;
  const Vec3 t = pose.translation;
  for (std::size_t i = 0; i < nl; ++i) {
    const double x = lx_[i], y = ly_[i], z = lz_[i];
    scratch.x[i] = m[0][0] * x + m[0][1] * y + m[0][2] * z + t.x;
    scratch.y[i] = m[1][0] * x + m[1][1] * y + m[1][2] * z + t.y;
    scratch.z[i] = m[2][0] * x + m[2][1] * y + m[2][2] * z + t.z;
  }

  std::uint64_t inspected = 0, within = 0;
  const InteractionEnergy e =
      accumulate_cells(scratch.x.data(), scratch.y.data(), scratch.z.data(),
                       scratch, &inspected, &within);

  if (work != nullptr) {
    ++work->evaluations;
    work->pair_terms += static_cast<std::uint64_t>(rx_.size()) * nl;
    work->inspected_pairs += inspected;
    work->within_cutoff_pairs += within;
  }
  return e;
}

void DockingEngine::energy_batch(const proteins::RigidTransform* poses,
                                 std::size_t count, BatchScratch& scratch,
                                 InteractionEnergy* out,
                                 WorkCounter* work) const {
  constexpr std::size_t W = kTileLanes;
  const std::size_t nl = lx_.size();
  fit(scratch.lane);
  WorkCounter local;  // flushed into *work once per batch

  // Tile the lanes by pose proximity: a tile shares one receptor walk, so
  // lumping distant poses together — e.g. the different gamma starts —
  // would walk cells no lane needs. Nearby poses — the 12
  // finite-difference probes of one descent differ by well under a cell
  // — share the walk perfectly. Tiling cannot change results: per-lane
  // sums are independent and a lane's term order does not depend on its
  // tile.
  const double tile_thresh = 0.25 * params_.cutoff;
  auto displacement_bound = [&](const proteins::RigidTransform& a,
                                const proteins::RigidTransform& p) {
    const double tx = a.translation.x - p.translation.x;
    const double ty = a.translation.y - p.translation.y;
    const double tz = a.translation.z - p.translation.z;
    double fro2 = 0.0;  // ||Ra - Rb||_F bounds the rotation term
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) {
        const double d = a.rotation.m[r][c] - p.rotation.m[r][c];
        fro2 += d * d;
      }
    return std::sqrt(tx * tx + ty * ty + tz * tz) +
           std::sqrt(fro2) * lig_radius_;
  };
  std::size_t tile = 0;
  while (tile < count) {
    std::size_t tile_end = tile + 1;
    double slack = 0.0;
    while (tile_end < count && tile_end - tile < W) {
      const double d = displacement_bound(poses[tile], poses[tile_end]);
      if (d >= tile_thresh) break;
      slack = std::max(slack, d);
      ++tile_end;
    }
    if (tile_end - tile < W) {
      // Too few nearby lanes to fill a tile: each is a scalar evaluation.
      for (std::size_t b = tile; b < tile_end; ++b)
        out[b] = energy(poses[b], scratch.lane, &local);
      tile = tile_end;
      continue;
    }
    if (scratch.x.size() < nl * W) {
      scratch.x.resize(nl * W);
      scratch.y.resize(nl * W);
      scratch.z.resize(nl * W);
    }
    // Every lane of the tile sits within `slack` of lane 0 (rigid-body
    // displacement bound, conservative), so one lane-0 distance test can
    // prove a receptor atom is beyond the cutoff for the whole tile. The
    // epsilon absorbs the bound's floating-point round-off (~1e-13 at
    // these magnitudes), keeping the prune strictly conservative.
    const double prune = params_.cutoff + slack + 1e-6;

    // Transform the tile's ligands into the tile-major layout. Same
    // expression as the scalar path, so each lane's world-frame positions
    // are bit-identical to an energy() call with the same pose.
    for (std::size_t b = 0; b < W; ++b) {
      const auto& m = poses[tile + b].rotation.m;
      const Vec3 t = poses[tile + b].translation;
      for (std::size_t i = 0; i < nl; ++i) {
        const double x = lx_[i], y = ly_[i], z = lz_[i];
        scratch.x[i * W + b] = m[0][0] * x + m[0][1] * y + m[0][2] * z + t.x;
        scratch.y[i * W + b] = m[1][0] * x + m[1][1] * y + m[1][2] * z + t.y;
        scratch.z[i * W + b] = m[2][0] * x + m[2][1] * y + m[2][2] * z + t.z;
      }
    }
    std::uint64_t inspected = 0, within = 0;
    batch_accumulate_cells(scratch.x.data(), scratch.y.data(),
                           scratch.z.data(), prune * prune, scratch.lane,
                           out + tile, &inspected, &within);
    // The tile's tallies equal what W scalar evaluations would record.
    local.evaluations += W;
    local.pair_terms += static_cast<std::uint64_t>(W) * rx_.size() * nl;
    local.inspected_pairs += inspected;
    local.within_cutoff_pairs += within;
    tile = tile_end;
  }
  if (work != nullptr) *work += local;
}

// The kernels' bodies. Each is always inlined into one entry point per
// variant (end of file), so each variant compiles the same source under
// its own target.

[[gnu::always_inline]] inline void DockingEngine::atom_terms(
    std::size_t i, double x, double y, double z,
    std::uint32_t* __restrict hit_j, double* __restrict hit_r2, double& lj,
    double& elec, std::uint64_t& inspected, std::uint64_t& within) const {
  const Window w = window_of(cell_of(x, y, z));
  if (w.empty()) return;
  const double cutoff2 = params_.cutoff * params_.cutoff;
  const double* const rx = rx_.data();
  const double* const ry = ry_.data();
  const double* const rz = rz_.data();

  // Distance pass over every inspected pair. The x-run of a (y, z) row is
  // contiguous in the permuted SoA, so the three x-cells fuse into one
  // slice. A slice's r^2 are computed into the buffer after the hits so
  // far (a loop the compiler vectorises), then compacted in place: each
  // pair's (j, r^2) goes to the next hit slot, which only advances when
  // the pair is within the cutoff — no branch to mispredict.
  std::size_t n = 0;
  for (int zz = w.z0; zz <= w.z1; ++zz) {
    for (int yy = w.y0; yy <= w.y1; ++yy) {
      const std::uint32_t begin = cell_start_[flat_cell(w.x0, yy, zz)];
      const std::uint32_t end = cell_start_[flat_cell(w.x1, yy, zz) + 1];
      const std::size_t len = end - begin;
      inspected += len;
      double* const slice_r2 = hit_r2 + n;
      for (std::size_t k = 0; k < len; ++k) {
        const double dx = x - rx[begin + k];
        const double dy = y - ry[begin + k];
        const double dz = z - rz[begin + k];
        slice_r2[k] = dx * dx + dy * dy + dz * dz;
      }
      for (std::size_t k = 0; k < len; ++k) {
        const double r2 = slice_r2[k];
        hit_j[n] = begin + static_cast<std::uint32_t>(k);
        hit_r2[n] = r2;
        n += static_cast<std::size_t>(!(r2 > cutoff2));
      }
    }
  }
  within += n;

  // Term pass: the division and the LJ powers, for the hits only, in walk
  // order. The running sums live in locals so the loop-carried additions
  // stay in registers.
  const double min_d2 = params_.min_distance * params_.min_distance;
  const double ke = params_.coulomb_constant / params_.dielectric_slope;
  const double lrad = lrad_[i], lse = lseps_[i];
  const double lqke = lq_[i] * ke;
  const double* const rrad = rrad_.data();
  const double* const rseps = rseps_.data();
  const double* const rq = rq_.data();
  double sum_lj = lj, sum_elec = elec;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t j = hit_j[k];
    double r2 = hit_r2[k];
    if (r2 < min_d2) r2 = min_d2;
    const double inv_r2 = 1.0 / r2;
    const double rmin = lrad + rrad[j];
    const double s2 = (rmin * rmin) * inv_r2;
    const double s6 = s2 * s2 * s2;
    sum_lj += (lse * rseps[j]) * (s6 * s6 - 2.0 * s6);
    sum_elec += (lqke * rq[j]) * inv_r2;
  }
  lj = sum_lj;
  elec = sum_elec;
}

[[gnu::always_inline]] inline InteractionEnergy
DockingEngine::accumulate_cells_body(const double* x, const double* y,
                                     const double* z, Scratch& scratch,
                                     std::uint64_t* inspected,
                                     std::uint64_t* within) const {
  double lj = 0.0, elec = 0.0;
  std::uint64_t looked = 0, hits = 0;
  std::uint32_t* const hit_j = scratch.hit_j.data();
  double* const hit_r2 = scratch.hit_r2.data();
  const std::size_t nl = lx_.size();
  for (std::size_t i = 0; i < nl; ++i)
    atom_terms(i, x[i], y[i], z[i], hit_j, hit_r2, lj, elec, looked, hits);
  *inspected = looked;
  *within = hits;
  return {lj, elec};
}

// Batched kernel. The lane loops run over compile-time-width local arrays,
// so the compiler vectorises them across poses with no remainder loop and
// no aliasing check, and the accumulators stay in the kernel's frame for
// the whole tile. Masked lanes add an exact 0.0, which is bit-neutral here
// because the accumulators can never hold -0.0 (they start at +0.0 and
// round-to-nearest addition from +0.0 never produces -0.0). Per-lane term
// order is exactly the scalar path's (i outer, j ascending), so lane b's
// total is bit-identical to energy(poses[b]).

[[gnu::always_inline]] inline void DockingEngine::batch_accumulate_cells_body(
    const double* x, const double* y, const double* z, double prune2,
    Scratch& lane, InteractionEnergy* out, std::uint64_t* inspected,
    std::uint64_t* within) const {
  constexpr std::size_t W = kTileLanes;
  const double cutoff2 = params_.cutoff * params_.cutoff;
  const double min_d2 = params_.min_distance * params_.min_distance;
  const double ke = params_.coulomb_constant / params_.dielectric_slope;
  const std::size_t nl = lx_.size();
  const double* const rx = rx_.data();
  const double* const ry = ry_.data();
  const double* const rz = rz_.data();
  const double* const rrad = rrad_.data();
  const double* const rseps = rseps_.data();
  const double* const rq = rq_.data();
  double lj[W] = {}, el[W] = {};
  std::uint64_t looked = 0, hits = 0;

  for (std::size_t i = 0; i < nl; ++i) {
    double px[W], py[W], pz[W];
    for (std::size_t b = 0; b < W; ++b) {
      px[b] = x[i * W + b];
      py[b] = y[i * W + b];
      pz[b] = z[i * W + b];
    }
    int cx[W], cy[W], cz[W];
    for (std::size_t b = 0; b < W; ++b) {
      const Cell c = cell_of(px[b], py[b], pz[b]);
      cx[b] = c.x;
      cy[b] = c.y;
      cz[b] = c.z;
    }
    bool same = true;
    for (std::size_t b = 1; b < W; ++b)
      same &= (cx[b] == cx[0]) & (cy[b] == cy[0]) & (cz[b] == cz[0]);
    if (!same) {
      // The lanes straddle a cell boundary: walk each lane's own window.
      for (std::size_t b = 0; b < W; ++b)
        atom_terms(i, px[b], py[b], pz[b], lane.hit_j.data(),
                   lane.hit_r2.data(), lj[b], el[b], looked, hits);
      continue;
    }
    const Window w = window_of({cx[0], cy[0], cz[0]});
    if (w.empty()) continue;

    // Tile-wide prune: one lane-0 distance beyond cutoff + slack proves
    // the pair is out of cutoff for every lane (triangle inequality), for
    // a twelfth of the per-lane distance work. Lane 0's r^2 over the
    // window's fused x-slices are computed and the receptor atoms that
    // survive the prune compacted without a branch, in walk order, as
    // atom_terms() does with its hits.
    std::uint32_t* const near = lane.hit_j.data();
    double* const near_r2 = lane.hit_r2.data();
    std::size_t n = 0;
    for (int zz = w.z0; zz <= w.z1; ++zz) {
      for (int yy = w.y0; yy <= w.y1; ++yy) {
        const std::uint32_t begin = cell_start_[flat_cell(w.x0, yy, zz)];
        const std::uint32_t end = cell_start_[flat_cell(w.x1, yy, zz) + 1];
        const std::size_t len = end - begin;
        looked += W * len;
        double* const slice_r2 = near_r2 + n;
        for (std::size_t k = 0; k < len; ++k) {
          const double dx = px[0] - rx[begin + k];
          const double dy = py[0] - ry[begin + k];
          const double dz = pz[0] - rz[begin + k];
          slice_r2[k] = dx * dx + dy * dy + dz * dz;
        }
        for (std::size_t k = 0; k < len; ++k) {
          near[n] = begin + static_cast<std::uint32_t>(k);
          n += static_cast<std::size_t>(!(slice_r2[k] > prune2));
        }
      }
    }

    const double lrad = lrad_[i], lse = lseps_[i];
    const double lqke = lq_[i] * ke;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t j = near[k];
      const double rxj = rx[j], ryj = ry[j], rzj = rz[j];
      // Distance pass for the tile, then the scalar path's early-out: only
      // pairs some lane sees within the cutoff pay for the division and
      // LJ powers.
      double r2[W];
      for (std::size_t b = 0; b < W; ++b) {
        const double dx = px[b] - rxj;
        const double dy = py[b] - ryj;
        const double dz = pz[b] - rzj;
        r2[b] = dx * dx + dy * dy + dz * dz;
      }
      std::uint64_t any = 0;
      for (std::size_t b = 0; b < W; ++b)
        any += static_cast<std::uint64_t>(r2[b] <= cutoff2);
      if (any == 0) continue;
      hits += any;

      const double rm2 = (lrad + rrad[j]) * (lrad + rrad[j]);
      const double eps = lse * rseps[j];
      const double qke = lqke * rq[j];
      for (std::size_t b = 0; b < W; ++b) {
        const bool in = r2[b] <= cutoff2;
        const double r2c = r2[b] < min_d2 ? min_d2 : r2[b];
        const double inv_r2 = 1.0 / r2c;
        const double s2 = rm2 * inv_r2;
        const double s6 = s2 * s2 * s2;
        lj[b] += in ? eps * (s6 * s6 - 2.0 * s6) : 0.0;
        el[b] += in ? qke * inv_r2 : 0.0;
      }
    }
  }
  for (std::size_t b = 0; b < W; ++b) out[b] = InteractionEnergy{lj[b], el[b]};
  *inspected = looked;
  *within = hits;
}

// The entry points, one per kernel and variant.

InteractionEnergy DockingEngine::accumulate_cells(
    const double* x, const double* y, const double* z, Scratch& scratch,
    std::uint64_t* inspected, std::uint64_t* within) const {
#ifdef HCMD_TARGET_X86_64_V3
  if (variant_ == KernelVariant::kX86_64_v3)
    return accumulate_cells_x86_64_v3(x, y, z, scratch, inspected, within);
#endif
  return accumulate_cells_body(x, y, z, scratch, inspected, within);
}

void DockingEngine::batch_accumulate_cells(
    const double* x, const double* y, const double* z, double prune2,
    Scratch& lane, InteractionEnergy* out, std::uint64_t* inspected,
    std::uint64_t* within) const {
#ifdef HCMD_TARGET_X86_64_V3
  if (variant_ == KernelVariant::kX86_64_v3)
    return batch_accumulate_cells_x86_64_v3(x, y, z, prune2, lane, out,
                                            inspected, within);
#endif
  batch_accumulate_cells_body(x, y, z, prune2, lane, out, inspected, within);
}

#ifdef HCMD_TARGET_X86_64_V3
HCMD_TARGET_X86_64_V3 InteractionEnergy
DockingEngine::accumulate_cells_x86_64_v3(const double* x, const double* y,
                                          const double* z, Scratch& scratch,
                                          std::uint64_t* inspected,
                                          std::uint64_t* within) const {
  return accumulate_cells_body(x, y, z, scratch, inspected, within);
}

HCMD_TARGET_X86_64_V3 void DockingEngine::batch_accumulate_cells_x86_64_v3(
    const double* x, const double* y, const double* z, double prune2,
    Scratch& lane, InteractionEnergy* out, std::uint64_t* inspected,
    std::uint64_t* within) const {
  batch_accumulate_cells_body(x, y, z, prune2, lane, out, inspected, within);
}
#endif

}  // namespace hcmd::docking
