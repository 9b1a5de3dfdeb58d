#include "docking/maxdo.hpp"

#include <istream>
#include <ostream>

#include "util/error.hpp"

namespace hcmd::docking {

void MaxDoCheckpoint::write(std::ostream& os) const {
  os << "maxdo-checkpoint 1 " << next_isep << ' ' << records.size() << '\n';
  os.precision(17);
  for (const auto& r : records) {
    os << r.isep << ' ' << r.irot << ' ' << r.pose.x << ' ' << r.pose.y << ' '
       << r.pose.z << ' ' << r.pose.alpha << ' ' << r.pose.beta << ' '
       << r.pose.gamma << ' ' << r.elj << ' ' << r.eelec << '\n';
  }
}

MaxDoCheckpoint MaxDoCheckpoint::read(std::istream& is) {
  std::string tag;
  int version = 0;
  MaxDoCheckpoint cp;
  std::size_t n = 0;
  if (!(is >> tag >> version >> cp.next_isep >> n) ||
      tag != "maxdo-checkpoint" || version != 1)
    throw ParseError("MaxDoCheckpoint::read: bad header");
  // The header's count is untrusted: records are appended one at a time,
  // so a truncated stream fails at its first missing record rather than
  // after allocating the count the header claims.
  for (std::size_t i = 0; i < n; ++i) {
    DockingRecord r;
    if (!(is >> r.isep >> r.irot >> r.pose.x >> r.pose.y >> r.pose.z >>
          r.pose.alpha >> r.pose.beta >> r.pose.gamma >> r.elj >> r.eelec))
      throw ParseError("MaxDoCheckpoint::read: truncated record");
    cp.records.push_back(r);
  }
  return cp;
}

MaxDoProgram::MaxDoProgram(const proteins::ReducedProtein& receptor,
                           const proteins::ReducedProtein& ligand,
                           MaxDoParams params)
    : receptor_(receptor), ligand_(ligand), params_(std::move(params)),
      positions_(proteins::starting_positions(receptor, params_.positions)),
      engine_(receptor, ligand, params_.energy) {
  HCMD_ASSERT(params_.gamma_steps >= 1 &&
              params_.gamma_steps <= proteins::kNumGammaSteps);
}

DockingRecord MaxDoProgram::compute_rotation(std::uint32_t isep,
                                             std::uint32_t irot,
                                             Workspace& ws) {
  const std::uint32_t n_gamma = params_.gamma_steps;
  ws.starts.resize(n_gamma);
  for (std::uint32_t ig = 0; ig < n_gamma; ++ig) {
    proteins::Dof6 start = orientations_.orientation(irot, ig);
    start.x = positions_[isep].x;
    start.y = positions_[isep].y;
    start.z = positions_[isep].z;
    ws.starts[ig] = start;
  }

  ws.results.resize(n_gamma);
  if (params_.batch_gamma) {
    // One lockstep batch: the gamma starts are the SIMD lanes, so each
    // minimiser iteration costs two receptor traversals for all of them.
    minimize_batch(engine_, ws.starts, params_.minimizer, ws.batch,
                   ws.results, &work_);
  } else {
    for (std::uint32_t ig = 0; ig < n_gamma; ++ig)
      ws.results[ig] =
          minimize(engine_, ws.starts[ig], params_.minimizer, ws.scratch,
                   &work_);
  }

  // Best-over-gamma selection, in gamma order with a strict '<' — shared
  // by both paths, and bit-stable because the per-gamma energies are.
  DockingRecord best_record;
  bool have_best = false;
  for (std::uint32_t ig = 0; ig < n_gamma; ++ig) {
    const MinimizationResult& res = ws.results[ig];
    if (!have_best || res.energy.total() < best_record.etot()) {
      best_record.isep = isep;
      best_record.irot = irot;
      best_record.pose = res.pose;
      best_record.elj = res.energy.lj;
      best_record.eelec = res.energy.elec;
      have_best = true;
    }
  }
  HCMD_ASSERT(have_best);
  return best_record;
}

RunStatus MaxDoProgram::run(const MaxDoTask& task, MaxDoCheckpoint& state,
                            const std::function<bool()>& interrupt) {
  if (task.isep_end > positions_.size() || task.isep_begin > task.isep_end)
    throw ConfigError("MaxDoProgram: isep range outside [0, Nsep]");
  if (task.irot_end > proteins::kNumRotationCouples ||
      task.irot_begin > task.irot_end)
    throw ConfigError("MaxDoProgram: irot range outside [0, 21]");
  // A resume point past the task's end would report kCompleted without the
  // missing positions.
  if (state.next_isep > task.isep_end)
    throw ConfigError("MaxDoProgram: resume state past the task's isep_end");
  if (state.next_isep < task.isep_begin) state.next_isep = task.isep_begin;

  // Reusable state, hoisted out of the position loop so nothing is
  // allocated per position. The batch scratch is pre-sized for the widest
  // fused evaluation (12 probes x gamma lanes).
  const std::uint32_t nrot = task.rotations();
  Workspace ws;
  ws.scratch = engine_.make_scratch();
  ws.batch.scratch = engine_.make_batch_scratch(
      12 * static_cast<std::size_t>(params_.gamma_steps));
  ws.starts.reserve(params_.gamma_steps);
  ws.results.reserve(params_.gamma_steps);
  std::vector<DockingRecord> position_records(nrot);

  for (std::uint32_t isep = state.next_isep; isep < task.isep_end; ++isep) {
    // Compute all rotation couples for this starting position, in irot
    // order. No partial state is kept inside the loop: an interruption
    // discards the whole position, as on World Community Grid.
    for (std::uint32_t r = 0; r < nrot; ++r)
      position_records[r] = compute_rotation(isep, task.irot_begin + r, ws);

    // Checkpoint boundary: commit the finished position atomically.
    state.records.insert(state.records.end(), position_records.begin(),
                         position_records.end());
    state.next_isep = isep + 1;

    if (interrupt && isep + 1 < task.isep_end && interrupt())
      return RunStatus::kInterrupted;
  }
  return RunStatus::kCompleted;
}

}  // namespace hcmd::docking
