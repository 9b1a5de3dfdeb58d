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
  auto cell_of = [&](const Vec3& p) {
    const int cx = std::clamp(
        static_cast<int>(std::floor((p.x - origin_.x) / edge)), 0, nx_ - 1);
    const int cy = std::clamp(
        static_cast<int>(std::floor((p.y - origin_.y) / edge)), 0, ny_ - 1);
    const int cz = std::clamp(
        static_cast<int>(std::floor((p.z - origin_.z) / edge)), 0, nz_ - 1);
    return flat_cell(cx, cy, cz);
  };

  // Counting sort: CSR offsets, then emit the SoA arrays in cell order so
  // every cell is a contiguous slice of the receptor arrays.
  std::vector<std::uint32_t> counts(n_cells, 0);
  for (const auto& a : atoms) ++counts[cell_of(a.position)];
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
    const std::uint32_t slot = cursor[cell_of(a.position)]++;
    rx_[slot] = a.position.x;
    ry_[slot] = a.position.y;
    rz_[slot] = a.position.z;
    rrad_[slot] = a.lj_radius;
    rseps_[slot] = std::sqrt(a.lj_epsilon);
    rq_[slot] = a.charge;
  }
}

DockingEngine::Scratch DockingEngine::make_scratch() const {
  Scratch s;
  s.x.resize(lx_.size());
  s.y.resize(lx_.size());
  s.z.resize(lx_.size());
  return s;
}

namespace {

void size_batch_scratch(DockingEngine::BatchScratch& s, std::size_t lanes,
                        std::size_t nl) {
  s.lanes = lanes;
  s.x.resize(nl * lanes);
  s.y.resize(nl * lanes);
  s.z.resize(nl * lanes);
  s.lj.resize(lanes);
  s.elec.resize(lanes);
  s.r2.resize(lanes);
  s.within_acc.resize(lanes);
  s.inspected.resize(lanes);
  s.within.resize(lanes);
  s.wx0.resize(lanes);
  s.wx1.resize(lanes);
  s.wy0.resize(lanes);
  s.wy1.resize(lanes);
  s.wz0.resize(lanes);
  s.wz1.resize(lanes);
  s.row_begin.resize(lanes);
  s.row_end.resize(lanes);
}

}  // namespace

DockingEngine::BatchScratch DockingEngine::make_batch_scratch(
    std::size_t lanes) const {
  BatchScratch s;
  size_batch_scratch(s, lanes, lx_.size());
  return s;
}

InteractionEnergy DockingEngine::energy(const proteins::RigidTransform& pose,
                                        Scratch& scratch,
                                        WorkCounter* work) const {
  const std::size_t nl = lx_.size();
  if (scratch.x.size() != nl) {
    scratch.x.resize(nl);
    scratch.y.resize(nl);
    scratch.z.resize(nl);
  }
  // Transform the whole ligand once per evaluation (SoA in, SoA out).
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
                       &inspected, &within);

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
  if (count == 0) return;
  const std::size_t nl = lx_.size();
  if (scratch.lanes < count || scratch.x.size() < nl * count)
    size_batch_scratch(scratch, count, nl);
  const std::size_t B = count;

  std::fill(scratch.lj.begin(), scratch.lj.begin() + B, 0.0);
  std::fill(scratch.elec.begin(), scratch.elec.begin() + B, 0.0);
  std::fill(scratch.within_acc.begin(), scratch.within_acc.begin() + B, 0.0);
  std::fill(scratch.inspected.begin(), scratch.inspected.begin() + B, 0);

  // Tile the lanes by pose proximity before transforming: a tile shares
  // one receptor traversal (a walk over the union of its lanes' cell
  // windows), so lumping distant poses together — e.g. the different gamma
  // starts — would multiply the masked inner-loop work by the tile
  // width. Nearby poses — the 12 finite-difference probes of one descent
  // differ by well under a cell — amortise the traversal perfectly; a
  // lone distant pose degrades to a tile of one, which routes through
  // the scalar kernel itself. Tiling cannot change results: per-lane
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
  while (tile < B) {
    std::size_t tile_end = tile + 1;
    double slack = 0.0;
    while (tile_end < B) {
      const double d = displacement_bound(poses[tile], poses[tile_end]);
      if (d >= tile_thresh) break;
      slack = std::max(slack, d);
      ++tile_end;
    }
    const std::size_t W = tile_end - tile;
    // Every lane of the tile sits within `slack` of lane 0 (rigid-body
    // displacement bound, conservative), so one lane-0 distance test can
    // prove a receptor atom is beyond the cutoff for the whole tile. The
    // epsilon absorbs the bound's floating-point round-off (~1e-13 at
    // these magnitudes), keeping the prune strictly conservative.
    const double prune = params_.cutoff + slack + 1e-6;
    const double prune2 = prune * prune;

    // Transform the tile's ligands into the tile-major layout (atom i,
    // tile lane b at [i * W + b]) — the kernel streams exactly these
    // coordinates, contiguously. Same expression as the scalar path, so
    // each lane's world-frame positions are bit-identical to an energy()
    // call with the same pose.
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

    if (W == 1) {
      // A width-1 tile is the scalar evaluation itself: the transform
      // above wrote a contiguous ligand, so run the scalar kernel on it
      // directly — bit-identity by construction, none of the masked
      // path's bookkeeping. The within count goes through within_acc so
      // the post-loop conversion below stays uniform.
      std::uint64_t ins = 0, win = 0;
      const InteractionEnergy e =
          accumulate_cells(scratch.x.data(), scratch.y.data(),
                           scratch.z.data(), &ins, &win);
      scratch.lj[tile] = e.lj;
      scratch.elec[tile] = e.elec;
      scratch.inspected[tile] = ins;
      scratch.within_acc[tile] = static_cast<double>(win);
    } else {
      batch_accumulate_cells(scratch, scratch.x.data(), scratch.y.data(),
                             scratch.z.data(), tile, W, prune2);
    }
    tile = tile_end;
  }

  // The kernels tally within-cutoff hits as doubles (so the count shares
  // the energy terms' vector lanes); each per-lane count is an exact
  // small integer.
  for (std::size_t b = 0; b < B; ++b)
    scratch.within[b] = static_cast<std::uint64_t>(scratch.within_acc[b]);

  // One counter flush per batch, not per pose: the per-lane tallies in the
  // scratch sum to exactly what B scalar evaluations would have recorded.
  if (work != nullptr) {
    std::uint64_t inspected = 0, within = 0;
    for (std::size_t b = 0; b < B; ++b) {
      inspected += scratch.inspected[b];
      within += scratch.within[b];
    }
    work->evaluations += B;
    work->pair_terms += static_cast<std::uint64_t>(B) * rx_.size() * nl;
    work->inspected_pairs += inspected;
    work->within_cutoff_pairs += within;
  }
  for (std::size_t b = 0; b < B; ++b)
    out[b] = InteractionEnergy{scratch.lj[b], scratch.elec[b]};
}

// The kernels' bodies. Each is always inlined into one entry point per
// variant (end of file), so each variant compiles the same source under
// its own target.

[[gnu::always_inline]] inline InteractionEnergy
DockingEngine::accumulate_cells_body(
    const double* x, const double* y, const double* z,
    std::uint64_t* inspected, std::uint64_t* within) const {
  InteractionEnergy e;
  const double edge = params_.cutoff;
  const double cutoff2 = edge * edge;
  const double min_d2 = params_.min_distance * params_.min_distance;
  const double ke = params_.coulomb_constant / params_.dielectric_slope;
  const std::size_t nl = lx_.size();
  std::uint64_t looked = 0, hits = 0;
  const double* const rx = rx_.data();
  const double* const ry = ry_.data();
  const double* const rz = rz_.data();
  const double* const rrad = rrad_.data();
  const double* const rseps = rseps_.data();
  const double* const rq = rq_.data();

  for (std::size_t i = 0; i < nl; ++i) {
    const double lxi = x[i], lyi = y[i], lzi = z[i];
    const double lrad = lrad_[i], lse = lseps_[i];
    const double lqke = lq_[i] * ke;
    const int cx = static_cast<int>(std::floor((lxi - origin_.x) / edge));
    const int cy = static_cast<int>(std::floor((lyi - origin_.y) / edge));
    const int cz = static_cast<int>(std::floor((lzi - origin_.z) / edge));
    // A ligand atom outside the receptor box can still interact with
    // boundary cells; clamp the 3x3x3 window into the grid.
    const int x0 = std::max(0, cx - 1), x1 = std::min(nx_ - 1, cx + 1);
    const int y0 = std::max(0, cy - 1), y1 = std::min(ny_ - 1, cy + 1);
    const int z0 = std::max(0, cz - 1), z1 = std::min(nz_ - 1, cz + 1);
    if (x0 > x1 || y0 > y1 || z0 > z1) continue;  // window fully outside

    for (int zz = z0; zz <= z1; ++zz) {
      for (int yy = y0; yy <= y1; ++yy) {
        // The x-run of a (y, z) row is contiguous in the permuted SoA, so
        // fuse the three x-cells into one linear slice.
        const std::uint32_t begin = cell_start_[flat_cell(x0, yy, zz)];
        const std::uint32_t end = cell_start_[flat_cell(x1, yy, zz) + 1];
        looked += end - begin;
        for (std::uint32_t j = begin; j < end; ++j) {
          const double dx = lxi - rx[j];
          const double dy = lyi - ry[j];
          const double dz = lzi - rz[j];
          double r2 = dx * dx + dy * dy + dz * dz;
          if (r2 > cutoff2) continue;
          if (r2 < min_d2) r2 = min_d2;
          ++hits;

          const double inv_r2 = 1.0 / r2;
          const double rmin = lrad + rrad[j];
          const double s2 = (rmin * rmin) * inv_r2;
          const double s6 = s2 * s2 * s2;
          e.lj += (lse * rseps[j]) * (s6 * s6 - 2.0 * s6);
          e.elec += (lqke * rq[j]) * inv_r2;
        }
      }
    }
  }
  *inspected = looked;
  *within = hits;
  return e;
}

// Batched kernel. The lane loop is the innermost, branch-free loop over
// contiguous lane arrays so the compiler vectorises across poses; masked
// lanes add an exact 0.0, which is bit-neutral here because the
// accumulators can never hold -0.0 (they start at +0.0 and round-to-nearest
// addition from +0.0 never produces -0.0). Per-lane term order is exactly
// the scalar path's (i outer, j ascending), so lane b's total is
// bit-identical to energy(poses[b]).

[[gnu::always_inline]] inline void DockingEngine::batch_accumulate_cells_body(
    BatchScratch& s, const double* x, const double* y, const double* z,
    std::size_t lane0, std::size_t width, double prune2) const {
  const std::size_t W = width;
  const double edge = params_.cutoff;
  const double cutoff2 = edge * edge;
  const double min_d2 = params_.min_distance * params_.min_distance;
  const double ke = params_.coulomb_constant / params_.dielectric_slope;
  const std::size_t nl = lx_.size();
  const double* const rx = rx_.data();
  const double* const ry = ry_.data();
  const double* const rz = rz_.data();
  const double* const rrad = rrad_.data();
  const double* const rseps = rseps_.data();
  const double* const rq = rq_.data();
  double* const __restrict acc_lj = s.lj.data() + lane0;
  double* const __restrict acc_el = s.elec.data() + lane0;
  double* const __restrict r2buf = s.r2.data();
  double* const __restrict within = s.within_acc.data() + lane0;
  std::uint64_t* const __restrict inspected = s.inspected.data() + lane0;
  std::uint32_t* const __restrict row_begin = s.row_begin.data();
  std::uint32_t* const __restrict row_end = s.row_end.data();

  for (std::size_t i = 0; i < nl; ++i) {
    const double* const px = x + i * W;
    const double* const py = y + i * W;
    const double* const pz = z + i * W;
    const double lrad = lrad_[i], lse = lseps_[i];
    const double lqke = lq_[i] * ke;

    // Per-lane clamped 3x3x3 windows (same arithmetic as the scalar walk);
    // a fully-outside lane gets an empty z-range so no row matches it.
    int uz0 = nz_, uz1 = -1, uy0 = ny_, uy1 = -1;
    for (std::size_t b = 0; b < W; ++b) {
      const int cx =
          static_cast<int>(std::floor((px[b] - origin_.x) / edge));
      const int cy =
          static_cast<int>(std::floor((py[b] - origin_.y) / edge));
      const int cz =
          static_cast<int>(std::floor((pz[b] - origin_.z) / edge));
      int x0 = std::max(0, cx - 1), x1 = std::min(nx_ - 1, cx + 1);
      int y0 = std::max(0, cy - 1), y1 = std::min(ny_ - 1, cy + 1);
      int z0 = std::max(0, cz - 1), z1 = std::min(nz_ - 1, cz + 1);
      if (x0 > x1 || y0 > y1 || z0 > z1) {
        z0 = 1;
        z1 = 0;  // empty marker: z0 > z1 never matches a row
      } else {
        uz0 = std::min(uz0, z0);
        uz1 = std::max(uz1, z1);
        uy0 = std::min(uy0, y0);
        uy1 = std::max(uy1, y1);
      }
      s.wx0[b] = x0;
      s.wx1[b] = x1;
      s.wy0[b] = y0;
      s.wy1[b] = y1;
      s.wz0[b] = z0;
      s.wz1[b] = z1;
    }
    if (uz0 > uz1) continue;  // every lane's window fully outside

    // Tight probe tiles usually land every lane in the same cells; with
    // identical windows every row's slice is shared, so the per-lane
    // bounds loop and the slice masks drop out of the walk entirely.
    bool same_windows = true;
    for (std::size_t b = 1; b < W; ++b)
      same_windows &= (s.wx0[b] == s.wx0[0]) & (s.wx1[b] == s.wx1[0]) &
                      (s.wy0[b] == s.wy0[0]) & (s.wy1[b] == s.wy1[0]) &
                      (s.wz0[b] == s.wz0[0]) & (s.wz1[b] == s.wz1[0]);
    if (same_windows) {
      for (int zz = s.wz0[0]; zz <= s.wz1[0]; ++zz) {
        for (int yy = s.wy0[0]; yy <= s.wy1[0]; ++yy) {
          const std::uint32_t begin = cell_start_[flat_cell(s.wx0[0], yy, zz)];
          const std::uint32_t end = cell_start_[flat_cell(s.wx1[0], yy, zz) + 1];
          const std::uint64_t n = end - begin;
          for (std::size_t b = 0; b < W; ++b) inspected[b] += n;
          for (std::uint32_t j = begin; j < end; ++j) {
            const double rxj = rx[j], ryj = ry[j], rzj = rz[j];
            // Tile-wide prune, as in the masked walk below.
            {
              const double dx = px[0] - rxj;
              const double dy = py[0] - ryj;
              const double dz = pz[0] - rzj;
              if (dx * dx + dy * dy + dz * dz > prune2) continue;
            }
            for (std::size_t b = 0; b < W; ++b) {
              const double dx = px[b] - rxj;
              const double dy = py[b] - ryj;
              const double dz = pz[b] - rzj;
              r2buf[b] = dx * dx + dy * dy + dz * dz;
            }
            std::uint64_t any = 0;
            for (std::size_t b = 0; b < W; ++b)
              any += static_cast<std::uint64_t>(r2buf[b] <= cutoff2);
            if (any == 0) continue;

            const double rm2 = (lrad + rrad[j]) * (lrad + rrad[j]);
            const double eps = lse * rseps[j];
            const double qke = lqke * rq[j];
            if (4 * any <= W) {
              for (std::size_t b = 0; b < W; ++b) {
                if (!(r2buf[b] <= cutoff2)) continue;
                const double r2 = r2buf[b] < min_d2 ? min_d2 : r2buf[b];
                const double inv_r2 = 1.0 / r2;
                const double s2 = rm2 * inv_r2;
                const double s6 = s2 * s2 * s2;
                acc_lj[b] += eps * (s6 * s6 - 2.0 * s6);
                acc_el[b] += qke * inv_r2;
                within[b] += 1.0;
              }
              continue;
            }
            for (std::size_t b = 0; b < W; ++b) {
              const bool in = r2buf[b] <= cutoff2;
              const double r2 = r2buf[b] < min_d2 ? min_d2 : r2buf[b];
              const double inv_r2 = 1.0 / r2;
              const double s2 = rm2 * inv_r2;
              const double s6 = s2 * s2 * s2;
              acc_lj[b] += in ? eps * (s6 * s6 - 2.0 * s6) : 0.0;
              acc_el[b] += in ? qke * inv_r2 : 0.0;
              within[b] += in ? 1.0 : 0.0;
            }
          }
        }
      }
      continue;
    }

    // Walk the union of the lanes' (y, z) rows in the scalar order (z
    // ascending, y ascending, j ascending within the fused x-slice). A
    // lane's own rows form a subsequence of the union walk, so its term
    // order is unchanged; per-row lane masks keep non-member lanes out.
    for (int zz = uz0; zz <= uz1; ++zz) {
      for (int yy = uy0; yy <= uy1; ++yy) {
        std::uint32_t ubegin = UINT32_MAX, uend = 0;
        for (std::size_t b = 0; b < W; ++b) {
          std::uint32_t begin = 0, end = 0;
          if (zz >= s.wz0[b] && zz <= s.wz1[b] && yy >= s.wy0[b] &&
              yy <= s.wy1[b]) {
            begin = cell_start_[flat_cell(s.wx0[b], yy, zz)];
            end = cell_start_[flat_cell(s.wx1[b], yy, zz) + 1];
            inspected[b] += end - begin;
            if (begin < end) {
              ubegin = std::min(ubegin, begin);
              uend = std::max(uend, end);
            }
          }
          row_begin[b] = begin;
          row_end[b] = end;
        }
        if (ubegin >= uend) continue;

        for (std::uint32_t j = ubegin; j < uend; ++j) {
          const double rxj = rx[j], ryj = ry[j], rzj = rz[j];
          // Tile-wide prune: one lane-0 distance beyond cutoff + slack
          // proves the pair is out of cutoff for every lane (triangle
          // inequality — valid whether or not lane 0 is in this row's
          // slice), for a twelfth of the per-lane distance work.
          {
            const double dx = px[0] - rxj;
            const double dy = py[0] - ryj;
            const double dz = pz[0] - rzj;
            if (dx * dx + dy * dy + dz * dz > prune2) continue;
          }
          // Distance pass for the tile, then the scalar path's early-out:
          // only pairs some lane sees within the cutoff pay for the
          // division and LJ powers (~15 % of the inspected pairs).
          for (std::size_t b = 0; b < W; ++b) {
            const double dx = px[b] - rxj;
            const double dy = py[b] - ryj;
            const double dz = pz[b] - rzj;
            r2buf[b] = dx * dx + dy * dy + dz * dz;
          }
          std::uint64_t any = 0;
          for (std::size_t b = 0; b < W; ++b)
            any += static_cast<std::uint64_t>(
                (j >= row_begin[b]) & (j < row_end[b]) &
                (r2buf[b] <= cutoff2));
          if (any == 0) continue;

          const double rm2 = (lrad + rrad[j]) * (lrad + rrad[j]);
          const double eps = lse * rseps[j];
          const double qke = lqke * rq[j];
          if (4 * any <= W) {
            // Sparse: only a lane or two sees this pair (the probes have
            // decorrelated at the cutoff shell). A full-width masked pass
            // would pay the division and LJ powers for every lane, so
            // handle just the hit lanes scalarly — ascending b keeps each
            // lane's own term order, so bit-identity is untouched.
            for (std::size_t b = 0; b < W; ++b) {
              if (!((j >= row_begin[b]) & (j < row_end[b]) &
                    (r2buf[b] <= cutoff2)))
                continue;
              const double r2 = r2buf[b] < min_d2 ? min_d2 : r2buf[b];
              const double inv_r2 = 1.0 / r2;
              const double s2 = rm2 * inv_r2;
              const double s6 = s2 * s2 * s2;
              acc_lj[b] += eps * (s6 * s6 - 2.0 * s6);
              acc_el[b] += qke * inv_r2;
              within[b] += 1.0;
            }
            continue;
          }
          for (std::size_t b = 0; b < W; ++b) {
            const bool in_slice = (j >= row_begin[b]) & (j < row_end[b]);
            const bool in = in_slice & (r2buf[b] <= cutoff2);
            const double r2 = r2buf[b] < min_d2 ? min_d2 : r2buf[b];
            const double inv_r2 = 1.0 / r2;
            const double s2 = rm2 * inv_r2;
            const double s6 = s2 * s2 * s2;
            acc_lj[b] += in ? eps * (s6 * s6 - 2.0 * s6) : 0.0;
            acc_el[b] += in ? qke * inv_r2 : 0.0;
            within[b] += in ? 1.0 : 0.0;
          }
        }
      }
    }
  }
}

// The entry points, one per kernel and variant.

InteractionEnergy DockingEngine::accumulate_cells(
    const double* x, const double* y, const double* z,
    std::uint64_t* inspected, std::uint64_t* within) const {
#ifdef HCMD_TARGET_X86_64_V3
  if (variant_ == KernelVariant::kX86_64_v3)
    return accumulate_cells_x86_64_v3(x, y, z, inspected, within);
#endif
  return accumulate_cells_body(x, y, z, inspected, within);
}

void DockingEngine::batch_accumulate_cells(BatchScratch& s, const double* x,
                                           const double* y, const double* z,
                                           std::size_t lane0,
                                           std::size_t width,
                                           double prune2) const {
#ifdef HCMD_TARGET_X86_64_V3
  if (variant_ == KernelVariant::kX86_64_v3)
    return batch_accumulate_cells_x86_64_v3(s, x, y, z, lane0, width, prune2);
#endif
  batch_accumulate_cells_body(s, x, y, z, lane0, width, prune2);
}

#ifdef HCMD_TARGET_X86_64_V3
HCMD_TARGET_X86_64_V3 InteractionEnergy
DockingEngine::accumulate_cells_x86_64_v3(const double* x, const double* y,
                                          const double* z,
                                          std::uint64_t* inspected,
                                          std::uint64_t* within) const {
  return accumulate_cells_body(x, y, z, inspected, within);
}

HCMD_TARGET_X86_64_V3 void DockingEngine::batch_accumulate_cells_x86_64_v3(
    BatchScratch& s, const double* x, const double* y, const double* z,
    std::size_t lane0, std::size_t width, double prune2) const {
  batch_accumulate_cells_body(s, x, y, z, lane0, width, prune2);
}
#endif

}  // namespace hcmd::docking
