#include "server/server.hpp"

#include <algorithm>
#include <string>

#include "util/error.hpp"

namespace hcmd::server {

ProjectServer::ProjectServer(std::vector<packaging::Workunit> catalog,
                             ServerConfig config)
    : catalog_(std::move(catalog)), config_(config), rng_(config.seed),
      records_(catalog_.size()) {
  if (catalog_.empty()) throw ConfigError("ProjectServer: empty catalogue");
  if (config_.deadline <= 0.0)
    throw ConfigError("ProjectServer: deadline must be > 0");
  if (config_.validation.spot_check_fraction < 0.0 ||
      config_.validation.spot_check_fraction > 1.0)
    throw ConfigError("ProjectServer: spot_check_fraction outside [0, 1]");
  policy_ = make_validation_policy(config_.policy, config_.validation,
                                   config_.adaptive_trust, rng_);
}

void ProjectServer::set_instruments(obs::Tracer* tracer,
                                    obs::Registry* registry) {
  tracer_ = tracer;
  registry_ = registry;
  if (registry_) {
    hist_turnaround_ =
        registry_->intern_histogram("server.result_turnaround_seconds");
    hist_reissue_depth_ =
        registry_->intern_histogram("server.reissue_queue_depth");
  }
}

std::uint64_t ProjectServer::issue(std::uint32_t wu_index,
                                   std::uint32_t device_id, double now) {
  WorkunitRecord& rec = records_[wu_index];
  const std::uint64_t result_id = results_.size();
  // pending_result stores ids in 32 bits (ids are dense indices).
  HCMD_ASSERT_MSG(result_id < kNoPending, "result id overflows 32 bits");
  ResultInstance inst;
  // Sent times never decrease with the id, so pop_due's cursor walks the
  // deadlines in order. Only the wire service can bind the clamp: two
  // network workers' arrival stamps may cross a drain boundary by a
  // fraction of a millisecond. The barrier replay issues in time order.
  inst.sent_time =
      results_.empty() ? now : std::max(now, results_.back().sent_time);
  inst.workunit_index = wu_index;
  inst.device_id = device_id;
  results_.push_back(inst);
  // The issue counter is a full count (the original u8 silently saturated
  // at 255, corrupting re-issue statistics on pathological workunits).
  HCMD_ASSERT_MSG(rec.issues < 0xFFFFFFFFu, "issue counter overflow");
  ++rec.issues;
  HCMD_ASSERT_MSG(rec.outstanding < 0xFFFFu, "outstanding counter overflow");
  ++rec.outstanding;
  if (rec.state == WorkunitState::kUnsent)
    rec.state = WorkunitState::kInProgress;
  ++counters_.results_sent;
  ++in_progress_;
  if (tracer_)
    tracer_->record(obs::TraceCat::kWorkunit, obs::TraceEv::kWuIssue, now,
                    static_cast<std::uint32_t>(result_id), wu_index,
                    static_cast<std::uint16_t>(device_id & 0xFFFFu));
  return result_id;
}

std::optional<Assignment> ProjectServer::request_work(std::uint32_t device_id,
                                                      double now) {
  if (device_id >= kMaxDevices)
    throw ConfigError("ProjectServer: device id " + std::to_string(device_id) +
                      " does not fit the result record's 24 bits");
  last_now_ = now;
  if (registry_)
    registry_->observe(hist_reissue_depth_,
                       static_cast<double>(reissue_queue_.size()));
  std::uint32_t wu_index = 0;
  bool found = false;

  // 1. Re-issues (timeouts / invalid results) take priority, like the BOINC
  //    transitioner's retry results.
  while (!reissue_queue_.empty()) {
    const std::uint32_t candidate = reissue_queue_.front();
    reissue_queue_.pop_front();
    WorkunitRecord& cand = records_[candidate];
    HCMD_ASSERT(cand.reissues_queued > 0);
    --cand.reissues_queued;
    if (cand.state != WorkunitState::kDone) {
      wu_index = candidate;
      found = true;
      break;
    }
  }

  // 2. Workunits that still need an initial redundant copy.
  while (!found && !extra_copy_queue_.empty()) {
    const std::uint32_t candidate = extra_copy_queue_.front();
    extra_copy_queue_.pop_front();
    WorkunitRecord& rec = records_[candidate];
    rec.queue_flags &= static_cast<std::uint8_t>(~kInExtraCopyQueue);
    if (rec.state != WorkunitState::kDone && rec.issues < rec.target_issues) {
      wu_index = candidate;
      found = true;
    }
  }

  // 3. Fresh workunits, in catalogue (launch) order.
  if (!found && next_unsent_ >= catalog_.size()) {
    // 4. End game: duplicate an outstanding straggler rather than idle the
    //    device.
    if (!pick_endgame(wu_index)) return std::nullopt;
    found = true;
  }
  if (!found) {
    wu_index = static_cast<std::uint32_t>(next_unsent_++);
    WorkunitRecord& rec = records_[wu_index];
    // The policy decides the redundancy regime at first issue (the fixed
    // policy draws its spot-check Bernoulli from rng_ here, in the same
    // branch order the pre-policy code used).
    const IssueDecision d = policy_->on_first_issue(device_id, now, rng_);
    rec.quorum_needed = d.quorum_needed;
    rec.target_issues = d.target_issues;
    if (rec.target_issues > 1) {
      extra_copy_queue_.push_back(wu_index);
      rec.queue_flags |= kInExtraCopyQueue;
    }
  } else {
    // A later copy (re-issue / extra initial copy / end-game duplicate):
    // let the policy re-evaluate the quorum for the receiving device. The
    // fixed policy never changes it; the adaptive policy escalates to
    // quorum-2 when the device is untrusted, so an unproven (or hostile)
    // device can never be the sole validator of a workunit. When the
    // escalated workunit has no other live or queued copy, recruit a
    // quorum partner via the re-issue queue.
    WorkunitRecord& rec = records_[wu_index];
    const std::uint8_t quorum =
        policy_->escalate_quorum(device_id, now, rec.quorum_needed);
    if (quorum > rec.quorum_needed) {
      rec.quorum_needed = quorum;
      if (rec.target_issues < quorum) rec.target_issues = quorum;
      if (rec.outstanding == 0 && rec.reissues_queued == 0)
        push_reissue(wu_index);
    }
  }

  Assignment a;
  a.result_id = issue(wu_index, device_id, now);
  a.workunit = catalog_[wu_index];
  a.deadline = result_deadline(a.result_id);
  return a;
}

bool ProjectServer::pick_endgame(std::uint32_t& wu_index) {
  if (config_.endgame_max_outstanding == 0) return false;
  for (int pass = 0; pass < 2; ++pass) {
    while (!endgame_queue_.empty()) {
      const std::uint32_t candidate = endgame_queue_.front();
      endgame_queue_.pop_front();
      WorkunitRecord& rec = records_[candidate];
      rec.queue_flags &= static_cast<std::uint8_t>(~kInEndgameQueue);
      if (rec.state != WorkunitState::kDone &&
          rec.outstanding < config_.endgame_max_outstanding) {
        wu_index = candidate;
        // Re-enqueue only while the workunit has room for a further copy
        // once this issue is accounted. (It used to be re-enqueued
        // unconditionally, so saturated and completed workunits piled up as
        // stale entries; with the membership bit and this check the queue
        // can never exceed the live workunit count.) A workunit dropped
        // here becomes eligible again when a copy times out or reports —
        // both set endgame_dirty_, and the rebuild below restores it.
        if (rec.outstanding + 1u < config_.endgame_max_outstanding) {
          endgame_queue_.push_back(candidate);
          rec.queue_flags |= kInEndgameQueue;
        }
        return true;
      }
    }
    // Queue drained: rebuild it from the survivors. The dirty flag avoids
    // rescanning when nothing changed since an empty rebuild.
    if (!endgame_dirty_) return false;
    endgame_dirty_ = false;
    if (!survivors_built_) {
      // The end game only starts once every workunit has been issued, and
      // no record ever leaves kDone, so the list only ever shrinks.
      for (std::uint32_t i = 0; i < records_.size(); ++i)
        if (records_[i].state != WorkunitState::kDone) survivors_.push_back(i);
      survivors_built_ = true;
    } else {
      std::erase_if(survivors_, [&](std::uint32_t i) {
        return records_[i].state == WorkunitState::kDone;
      });
    }
    for (const std::uint32_t i : survivors_) {
      WorkunitRecord& rec = records_[i];
      if (rec.outstanding < config_.endgame_max_outstanding) {
        endgame_queue_.push_back(i);
        rec.queue_flags |= kInEndgameQueue;
      }
    }
    if (tracer_)
      tracer_->record(obs::TraceCat::kServer, obs::TraceEv::kSrvEndgameRebuild,
                      last_now_,
                      static_cast<std::uint32_t>(endgame_queue_.size()));
    if (endgame_queue_.empty()) return false;
  }
  return false;
}

std::uint32_t ProjectServer::workunit_issues(std::uint32_t index) const {
  HCMD_ASSERT(index < records_.size());
  return records_[index].issues;
}

std::uint32_t ProjectServer::workunit_outstanding(std::uint32_t index) const {
  HCMD_ASSERT(index < records_.size());
  return records_[index].outstanding;
}

void ProjectServer::assimilate(std::uint32_t wu_index) {
  WorkunitRecord& rec = records_[wu_index];
  HCMD_ASSERT(rec.state != WorkunitState::kDone);
  rec.state = WorkunitState::kDone;
  ++counters_.workunits_completed;
  counters_.useful_reference_seconds += catalog_[wu_index].reference_seconds;
  if (tracer_)
    tracer_->record(obs::TraceCat::kWorkunit, obs::TraceEv::kWuAssimilate,
                    last_now_, wu_index,
                    static_cast<std::uint32_t>(counters_.workunits_completed));
}

ResultState ProjectServer::report_result(std::uint64_t result_id, double now,
                                         const ResultReport& report) {
  HCMD_ASSERT(result_id < results_.size());
  last_now_ = now;
  ResultInstance& inst = results_[result_id];
  HCMD_ASSERT_MSG(inst.state == ResultState::kInProgress ||
                      inst.state == ResultState::kTimedOut,
                  "result reported twice");
  const bool was_outstanding = inst.state == ResultState::kInProgress;
  WorkunitRecord& rec = records_[inst.workunit_index];
  if (was_outstanding) {
    HCMD_ASSERT(rec.outstanding > 0);
    --rec.outstanding;
    --in_progress_;
  }

  endgame_dirty_ = true;
  inst.silent_error = report.silent_error;
  if (registry_) registry_->observe(hist_turnaround_, now - inst.sent_time);
  // Trace the return once the instance's final state is known (the paths
  // below all end by returning inst.state).
  const auto trace_return = [&]() {
    if (tracer_)
      tracer_->record(obs::TraceCat::kWorkunit, obs::TraceEv::kWuReturn, now,
                      static_cast<std::uint32_t>(result_id),
                      inst.workunit_index,
                      static_cast<std::uint16_t>(inst.state));
  };
  ++counters_.results_received;
  counters_.reported_runtime_seconds += report.reported_runtime;

  if (report.computation_error) {
    inst.state = ResultState::kInvalid;
    ++counters_.results_invalid;
    policy_->on_result(inst.device_id, now, ResultEvent::kComputationError);
    if (rec.state != WorkunitState::kDone)
      push_reissue(inst.workunit_index);
    trace_return();
    return inst.state;
  }

  if (rec.state == WorkunitState::kDone) {
    // A correct-looking result for an already-complete workunit: WCG still
    // accepts it ("this result is taken into account even if [it] has
    // already been computed by some other device"). If it disagrees with
    // the assimilated canonical, the corruption is detected after the
    // fact.
    inst.state = ResultState::kRedundant;
    ++counters_.results_redundant;
    const bool mismatch = inst.silent_error != rec.done_corrupt();
    if (mismatch) ++counters_.late_mismatches;
    policy_->on_result(inst.device_id, now,
                       mismatch ? ResultEvent::kLateMismatch
                                : ResultEvent::kLateAgreement);
    // The canonical device answers for the assimilated result: a spot-check
    // agreement confirms it, a disagreement implicates it too (one of the
    // two is wrong and a real validator cannot tell which).
    if (rec.pending_result != kNoPending)
      policy_->on_result(results_[rec.pending_result].device_id, now,
                         mismatch ? ResultEvent::kCanonicalRefuted
                                  : ResultEvent::kCanonicalConfirmed);
    trace_return();
    return inst.state;
  }

  if (rec.quorum_needed <= 1) {
    // Range-check validation alone: a silent error sails through.
    inst.state = ResultState::kValid;
    ++counters_.results_valid;
    if (inst.silent_error) {
      rec.set_done_corrupt();
      ++counters_.corrupt_assimilated;
    }
    policy_->on_result(inst.device_id, now,
                       ResultEvent::kAssimilatedUnverified);
    assimilate(inst.workunit_index);
    // Remember the canonical result so late spot-check copies can vouch
    // for (or against) its device.
    rec.pending_result = static_cast<std::uint32_t>(result_id);
    trace_return();
    return inst.state;
  }

  // Quorum of 2: hold the first clean-looking result, compare on the
  // second.
  if (rec.pending_result == kNoPending) {
    rec.pending_result = static_cast<std::uint32_t>(result_id);
    if (report.corruption_tag != 0)
      held_tags_.emplace(rec.pending_result, report.corruption_tag);
    inst.state = ResultState::kPendingValidation;
    ++counters_.results_pending;
    policy_->on_result(inst.device_id, now, ResultEvent::kPendingQuorum);
    trace_return();
    return inst.state;
  }
  ResultInstance& partner = results_[rec.pending_result];
  const auto held = held_tags_.extract(rec.pending_result);
  const std::uint64_t partner_tag = held.empty() ? 0 : held.mapped();
  rec.pending_result = kNoPending;
  --counters_.results_pending;
  // Results agree when both are clean, or both are corrupt *the same way*
  // (same payload tag). The fault plan stamps every corrupt result with a
  // tag of its own, so two independently corrupted copies never match.
  if (partner.silent_error == inst.silent_error &&
      partner_tag == report.corruption_tag) {
    partner.state = ResultState::kValid;
    ++counters_.results_quorum_extra;
    inst.state = ResultState::kValid;
    ++counters_.results_valid;
    if (inst.silent_error) {
      // Both members corrupt the same way: the comparison cannot see it.
      rec.set_done_corrupt();
      ++counters_.corrupt_assimilated;
    }
    policy_->on_result(inst.device_id, now, ResultEvent::kQuorumVerified);
    policy_->on_result(partner.device_id, now, ResultEvent::kPartnerVerified);
    assimilate(inst.workunit_index);
    rec.pending_result = static_cast<std::uint32_t>(result_id);
  } else {
    // Disagreement: discard both, penalise both devices, re-issue twice to
    // rebuild the quorum.
    partner.state = ResultState::kInvalid;
    inst.state = ResultState::kInvalid;
    counters_.results_invalid += 2;
    ++counters_.quorum_mismatches;
    policy_->on_result(inst.device_id, now, ResultEvent::kQuorumMismatch);
    policy_->on_result(partner.device_id, now, ResultEvent::kPartnerMismatch);
    // Two copies on purpose: the quorum must be rebuilt from scratch, so
    // the re-issue queue legitimately holds this workunit twice.
    push_reissue(inst.workunit_index);
    push_reissue(inst.workunit_index);
  }
  trace_return();
  return inst.state;
}

bool ProjectServer::result_reported(std::uint64_t result_id) const {
  HCMD_ASSERT(result_id < results_.size());
  const ResultState s = results_[result_id].state;
  return s != ResultState::kInProgress && s != ResultState::kTimedOut;
}

bool ProjectServer::handle_deadline(std::uint64_t result_id, double now) {
  HCMD_ASSERT(result_id < results_.size());
  ResultInstance& inst = results_[result_id];
  if (inst.state != ResultState::kInProgress) return false;
  if (now < result_deadline(result_id)) return false;
  last_now_ = now;
  inst.state = ResultState::kTimedOut;
  ++counters_.results_timed_out;
  --in_progress_;
  if (tracer_)
    tracer_->record(obs::TraceCat::kWorkunit, obs::TraceEv::kWuTimeout, now,
                    static_cast<std::uint32_t>(result_id),
                    inst.workunit_index);
  endgame_dirty_ = true;
  WorkunitRecord& rec = records_[inst.workunit_index];
  HCMD_ASSERT(rec.outstanding > 0);
  --rec.outstanding;
  if (rec.state != WorkunitState::kDone)
    push_reissue(inst.workunit_index);
  return true;
}

void ProjectServer::pop_due(double t, std::vector<DeadlineTick>& out) {
  for (; next_due_ < results_.size(); ++next_due_) {
    const double deadline = result_deadline(next_due_);
    if (deadline > t) return;
    if (results_[next_due_].state == ResultState::kInProgress)
      out.push_back({deadline, next_due_});
  }
}

const ResultInstance& ProjectServer::result(std::uint64_t result_id) const {
  HCMD_ASSERT(result_id < results_.size());
  return results_[result_id];
}

WorkunitState ProjectServer::workunit_state(std::uint32_t index) const {
  HCMD_ASSERT(index < records_.size());
  return records_[index].state;
}

std::vector<std::uint64_t> ProjectServer::completed_positions_per_receptor(
    std::uint32_t receptor_count) const {
  std::vector<std::uint64_t> out(receptor_count, 0);
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (records_[i].state == WorkunitState::kDone) {
      HCMD_ASSERT(catalog_[i].receptor < receptor_count);
      out[catalog_[i].receptor] += catalog_[i].positions();
    }
  }
  return out;
}

std::vector<double> ProjectServer::completed_reference_seconds_per_receptor(
    std::uint32_t receptor_count) const {
  std::vector<double> out(receptor_count, 0.0);
  for (std::size_t i = 0; i < catalog_.size(); ++i) {
    if (records_[i].state == WorkunitState::kDone) {
      HCMD_ASSERT(catalog_[i].receptor < receptor_count);
      out[catalog_[i].receptor] += catalog_[i].reference_seconds;
    }
  }
  return out;
}

std::vector<double> ProjectServer::total_reference_seconds_per_receptor(
    std::uint32_t receptor_count) const {
  std::vector<double> out(receptor_count, 0.0);
  for (const auto& wu : catalog_) {
    HCMD_ASSERT(wu.receptor < receptor_count);
    out[wu.receptor] += wu.reference_seconds;
  }
  return out;
}

}  // namespace hcmd::server
