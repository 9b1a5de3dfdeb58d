// MAXDo-equivalent cross-docking program.
//
// Computes the map of interaction energies for one (receptor, ligand)
// couple: for every starting position isep and rotation couple irot, the
// program minimises the interaction energy from 10 gamma starts and records
// the best pose. Checkpoints are taken *between starting positions*, exactly
// as the World Community Grid port did — an interruption mid-position loses
// that position's partial work and restarts it.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "docking/energy.hpp"
#include "docking/engine.hpp"
#include "docking/minimizer.hpp"
#include "proteins/protein.hpp"
#include "proteins/starting_positions.hpp"

namespace hcmd::docking {

/// One line of the MAXDo result file: the ligand placement and the
/// decomposed interaction energies for a (isep, irot) start.
struct DockingRecord {
  std::uint32_t isep = 0;  ///< starting-position index (0-based)
  std::uint32_t irot = 0;  ///< rotation-couple index (0-based, < 21)
  proteins::Dof6 pose;     ///< minimised pose (best over the 10 gamma starts)
  double elj = 0.0;        ///< Lennard-Jones term (kcal/mol)
  double eelec = 0.0;      ///< electrostatic term (kcal/mol)

  double etot() const { return elj + eelec; }
};

/// Work-slice description: a contiguous range of starting positions and
/// rotation couples for one protein couple. Workunits produced by the
/// packaging module are exactly such slices with the full rotation range.
struct MaxDoTask {
  std::uint32_t isep_begin = 0;
  std::uint32_t isep_end = 0;  ///< exclusive
  std::uint32_t irot_begin = 0;
  std::uint32_t irot_end = proteins::kNumRotationCouples;  ///< exclusive

  std::uint32_t positions() const { return isep_end - isep_begin; }
  std::uint32_t rotations() const { return irot_end - irot_begin; }
};

struct MaxDoParams {
  EnergyParams energy;
  MinimizerParams minimizer;
  proteins::StartingPositionParams positions;
  /// Gamma refinements per rotation couple (paper: 10).
  std::uint32_t gamma_steps = proteins::kNumGammaSteps;
  /// Run the gamma starts of each (isep, irot) as one lockstep SIMD batch
  /// (lane = gamma start) instead of sequential scalar minimisations. The
  /// batched path is bit-identical to the scalar one by construction —
  /// checkpoints do not change — so this is on by default. The scalar
  /// path stays as the reference of the bit-identity tests and of the
  /// BM_MaxDoPosition batch:0/batch:1 speedup that tools/bench_gate.py
  /// gates.
  bool batch_gamma = true;
};

/// Resumable program state. Serialisable so the volunteer agent model (and
/// the tests) can persist and restore it across simulated interruptions.
struct MaxDoCheckpoint {
  std::uint32_t next_isep = 0;  ///< first starting position not yet finished
  std::vector<DockingRecord> records;

  void write(std::ostream& os) const;
  static MaxDoCheckpoint read(std::istream& is);
};

enum class RunStatus : std::uint8_t {
  kCompleted,    ///< task finished; checkpoint holds all records
  kInterrupted,  ///< interrupt() returned true between positions
};

/// The docking program for one couple. Stateless across run() calls except
/// for the cumulative work counter.
class MaxDoProgram {
 public:
  /// References must outlive the program.
  MaxDoProgram(const proteins::ReducedProtein& receptor,
               const proteins::ReducedProtein& ligand, MaxDoParams params);

  /// Runs `task`, resuming from `state`. If `interrupt` is provided it is
  /// polled after each completed starting position; returning true stops
  /// the run with a consistent checkpoint. Throws ConfigError if the task
  /// range is invalid for this receptor or `state.next_isep` lies past
  /// `task.isep_end`.
  RunStatus run(const MaxDoTask& task, MaxDoCheckpoint& state,
                const std::function<bool()>& interrupt = {});

  /// Total work performed by this program instance across run() calls.
  const WorkCounter& work() const { return work_; }

  /// Number of starting positions this receptor generates (Nsep).
  std::uint32_t nsep() const {
    return static_cast<std::uint32_t>(positions_.size());
  }

  const MaxDoParams& params() const { return params_; }
  const DockingEngine& engine() const { return engine_; }

 private:
  /// Reusable state: the scalar scratch, the batch-minimiser buffers and
  /// the gamma start/result arrays. Allocated once per run() and reused
  /// across every starting position, so the per-(isep, irot) computation
  /// is allocation-free in steady state.
  struct Workspace {
    DockingEngine::Scratch scratch;
    BatchMinimizerWork batch;
    std::vector<proteins::Dof6> starts;
    std::vector<MinimizationResult> results;
  };

  /// Computes the best-over-gamma record for one (isep, irot) start and
  /// adds its work to work_. The gamma starts run as one minimize_batch
  /// when params_.batch_gamma is set; the best-record selection is
  /// identical either way.
  DockingRecord compute_rotation(std::uint32_t isep, std::uint32_t irot,
                                 Workspace& ws);

  const proteins::ReducedProtein& receptor_;
  const proteins::ReducedProtein& ligand_;
  MaxDoParams params_;
  std::vector<proteins::Vec3> positions_;
  proteins::OrientationGrid orientations_;
  DockingEngine engine_;
  WorkCounter work_;
};

}  // namespace hcmd::docking
