#include "client/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <variant>

#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::client {

VolunteerFleet::VolunteerFleet(sim::Simulation& simulation,
                               UplinkMailbox& uplink,
                               const server::ShareSchedule& schedule,
                               obs::Registry& registry, AgentConfig config)
    : sim_(simulation), uplink_(uplink), schedule_(schedule),
      registry_(registry), config_(config),
      hcmd_runtime_(0.0, util::kSecondsPerWeek),
      wcg_runtime_(0.0, util::kSecondsPerWeek),
      id_work_requests_(registry.intern_counter(metric::kWorkRequests)),
      id_work_denied_(registry.intern_counter(metric::kWorkDenied)),
      id_other_project_(registry.intern_counter(metric::kOtherProject)),
      id_long_pauses_(registry.intern_counter(metric::kLongPauses)),
      id_device_deaths_(registry.intern_counter(metric::kDeviceDeaths)) {}

void VolunteerFleet::reserve_devices(std::size_t n) {
  specs_.reserve(n);
  rngs_.reserve(n);
  phases_.reserve(n);
  work_.reserve(n);
  segment_start_.reserve(n);
  offline_at_.reserve(n);
  long_pause_due_.reserve(n);
  pending_request_.reserve(n);
  msg_seq_.reserve(n);
  handles_.reserve(n);
  if (faults_on()) {
    fault_rngs_.reserve(n);
    corruption_seq_.reserve(n);
    uploads_.reserve(n);
    backoff_attempts_.reserve(n);
  }
}

void VolunteerFleet::set_fault_schedule(faults::FaultSchedule* faults) {
  HCMD_ASSERT_MSG(specs_.empty(),
                  "set_fault_schedule must precede add_device");
  faults_ = faults;
}

std::uint32_t VolunteerFleet::add_device(const volunteer::DeviceSpec& spec,
                                         util::Rng rng, util::Rng fault_rng) {
  HCMD_ASSERT(spec.effective_speed() > 0.0);
  const auto d = static_cast<std::uint32_t>(specs_.size());
  specs_.push_back(spec);
  rngs_.push_back(rng);
  phases_.push_back(Phase::kUnborn);
  work_.emplace_back();
  segment_start_.push_back(0.0);
  offline_at_.push_back(0.0);
  long_pause_due_.push_back(0);
  pending_request_.push_back(0);
  msg_seq_.push_back(0);
  handles_.emplace_back();
  if (faults_on()) {
    fault_rngs_.push_back(fault_rng);
    corruption_seq_.push_back(0);
    uploads_.emplace_back();
    backoff_attempts_.push_back(0);
    if (faults_->is_straggler(spec.id)) faults_->note_straggler(spec.id);
    if (faults_->is_saboteur(spec.id)) faults_->note_saboteur(spec.id);
  }
  const double join = std::max(spec.join_time, sim_.now());
  schedule_at(join, d, Action::kJoin);
  return d;
}

void VolunteerFleet::dispatch(std::uint32_t d, Action action) {
  switch (action) {
    case Action::kJoin: on_join(d); break;
    case Action::kOnline: go_online(d); break;
    case Action::kOffline: go_offline(d); break;
    case Action::kDeath: on_death(d); break;
    case Action::kPause: trigger_long_pause(d); break;
    case Action::kComplete: on_complete(d); break;
    case Action::kRetry: request_work(d); break;
    case Action::kUploadRetry: retry_upload(d); break;
  }
}

void VolunteerFleet::on_join(std::uint32_t d) {
  phases_[d] = Phase::kOffline;
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevJoin, sim_.now(),
                    d, specs_[d].id);
  schedule_in(specs_[d].lifetime_seconds, d, Action::kDeath);
  // A joining device is somewhere inside an off period: stagger the first
  // attach by a draw from the off distribution (memoryless, so the residual
  // has the same law), capped at a week. This also prevents a batch of
  // devices created at t = 0 from requesting work in lock-step.
  const double stagger =
      std::min(rngs_[d].exponential(specs_[d].off_mean_seconds > 0.0
                                        ? specs_[d].off_mean_seconds
                                        : 1.0),
               util::kSecondsPerWeek);
  handles_[d].online = schedule_in(stagger, d, Action::kOnline);
}

void VolunteerFleet::go_online(std::uint32_t d) {
  if (phases_[d] == Phase::kDead) return;
  HCMD_ASSERT(phases_[d] == Phase::kOffline);
  if (tracer_)
    tracer_->record(obs::TraceCat::kChurn, obs::TraceEv::kDevOnline,
                    sim_.now(), d);
  offline_at_[d] = sim_.now() + rngs_[d].exponential(specs_[d].on_mean_seconds);
  handles_[d].offline = schedule_at(offline_at_[d], d, Action::kOffline);
  if (work_[d].active) {
    phases_[d] = Phase::kComputing;
    begin_segment(d);
  } else {
    phases_[d] = Phase::kIdle;
    request_work(d);
  }
}

void VolunteerFleet::go_offline(std::uint32_t d) {
  if (phases_[d] == Phase::kDead) return;
  if (tracer_)
    tracer_->record(obs::TraceCat::kChurn, obs::TraceEv::kDevOffline,
                    sim_.now(), d, long_pause_due_[d]);
  Handles& h = handles_[d];
  h.complete.cancel(sim_);
  h.pause.cancel(sim_);
  h.retry.cancel(sim_);
  if (phases_[d] == Phase::kComputing) settle_segment(d, /*interrupted=*/true);
  phases_[d] = Phase::kOffline;
  double off_len;
  if (long_pause_due_[d]) {
    // The volunteer paused/killed the agent for a long stretch; the server
    // will time the workunit out, and the eventual upload arrives late.
    long_pause_due_[d] = 0;
    off_len = rngs_[d].exponential(config_.long_pause_mean_weeks *
                                   util::kSecondsPerWeek);
  } else {
    off_len = volunteer::sample_reattach_delay(
        sim_.now(), specs_[d].off_mean_seconds, specs_[d].diurnal, rngs_[d]);
  }
  h.online = schedule_in(off_len, d, Action::kOnline);
}

void VolunteerFleet::on_death(std::uint32_t d) {
  if (phases_[d] == Phase::kDead) return;
  if (phases_[d] == Phase::kComputing)
    settle_segment(d, /*interrupted=*/true);
  phases_[d] = Phase::kDead;
  registry_.add(id_device_deaths_);
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevDeath,
                    sim_.now(), d, work_[d].active ? 1u : 0u);
  Handles& h = handles_[d];
  h.offline.cancel(sim_);
  h.complete.cancel(sim_);
  h.pause.cancel(sim_);
  h.online.cancel(sim_);
  h.retry.cancel(sim_);
  if (faults_on()) {
    // A buffered outbox dies with the device; the deadline recovers the WU.
    h.upload.cancel(sim_);
    PendingUpload& up = uploads_[d];
    if (up.active) {
      faults_->note_loss(sim_.now(), specs_[d].id, up.report.result_id);
      up.active = false;
    }
  }
  // Any assigned workunit is silently dropped; the server learns about it
  // from the deadline. An in-flight work request stays pending: the barrier
  // answer finds the device dead and drops the assignment the same way.
  work_[d].active = false;
}

VolunteerFleet::ChurnResult VolunteerFleet::mass_churn(double death_fraction) {
  ChurnResult r;
  if (!faults_on()) return r;
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(phases_.size());
       ++d) {
    const Phase p = phases_[d];
    if (p == Phase::kUnborn || p == Phase::kDead) continue;
    ++r.alive_before;
    // Drawn from the device's own fault stream: the spike's victim set is a
    // per-device property, identical at any shard count.
    if (!faults_->draw_churn_death(death_fraction, fault_rngs_[d])) continue;
    on_death(d);
    ++r.killed;
  }
  return r;
}

void VolunteerFleet::request_work(std::uint32_t d) {
  if (phases_[d] != Phase::kIdle) return;
  HCMD_ASSERT(!work_[d].active);
  // An earlier request is still riding to the barrier; its answer will put
  // the device back to work.
  if (pending_request_[d]) return;
  registry_.add(id_work_requests_);

  const double share = schedule_.share_at(sim_.now());
  const bool want_hcmd = rngs_[d].bernoulli(share) && !server_complete_;

  if (want_hcmd && faults_on() && faults_->server_down(sim_.now())) {
    // Outage window: don't even reach the scheduler — back off with capped
    // exponential retry (the device sits idle, like a real agent whose
    // project is unreachable). The attempt counter resets on the first
    // request that finds the server up again.
    faults_->note_outage_denied(sim_.now(), specs_[d].id);
    const std::uint32_t attempt = backoff_attempts_[d];
    if (backoff_attempts_[d] < 0xFFFFu) ++backoff_attempts_[d];
    faults_->note_backoff_retry(sim_.now(), specs_[d].id, attempt);
    handles_[d].retry = schedule_in(
        faults_->backoff_delay(attempt, fault_rngs_[d]), d, Action::kRetry);
    return;
  }
  if (want_hcmd && faults_on()) backoff_attempts_[d] = 0;

  if (want_hcmd) {
    pending_request_[d] = 1;
    server::proto::RequestWork m;
    m.device = specs_[d].id;
    m.seq = ++msg_seq_[d];
    uplink_.post({sim_.now(), m});
    return;
  }

  start_other_project(d);
}

void VolunteerFleet::start_other_project(std::uint32_t d) {
  registry_.add(id_other_project_);
  WorkItem item;
  item.active = true;
  item.is_hcmd = false;
  item.required_ref =
      config_.other_project_reference_hours * util::kSecondsPerHour;
  work_[d] = item;
  phases_[d] = Phase::kComputing;
  begin_segment(d);
}

void VolunteerFleet::deliver(std::uint32_t device,
                             const server::Decision& reply) {
  if (const auto* a = std::get_if<server::proto::Assignment>(&reply))
    deliver_assignment(device, *a);
  else
    deliver_denial(device,
                   std::get<server::proto::NoWork>(reply).project_complete);
}

std::size_t VolunteerFleet::awaiting_reply() const {
  return static_cast<std::size_t>(
      std::count(pending_request_.begin(), pending_request_.end(), 1));
}

void VolunteerFleet::deliver_assignment(
    std::uint32_t d, const server::proto::Assignment& assignment) {
  HCMD_ASSERT(pending_request_[d]);
  pending_request_[d] = 0;
  if (phases_[d] == Phase::kDead) {
    // Assigned to a corpse: silently dropped, exactly like a death right
    // after a synchronous assignment. The deadline recovers the workunit.
    return;
  }
  HCMD_ASSERT(!work_[d].active);
  WorkItem item;
  item.active = true;
  item.is_hcmd = true;
  item.result_id = assignment.result_id;
  item.required_ref = assignment.reference_seconds;
  item.checkpoint_ref =
      assignment.reference_seconds /
      static_cast<double>(assignment.isep_end - assignment.isep_begin);
  if (rngs_[d].bernoulli(specs_[d].abandon_rate))
    item.long_pause_at = rngs_[d].uniform(0.0, item.required_ref);
  work_[d] = item;
  if (phases_[d] == Phase::kIdle) {
    phases_[d] = Phase::kComputing;
    begin_segment(d);
  }
  // kOffline: the stored item starts when the device re-attaches (the
  // go_online resume branch), like an agent fetching work right before the
  // owner shut the machine down.
}

void VolunteerFleet::deliver_denial(std::uint32_t d, bool project_complete) {
  HCMD_ASSERT(pending_request_[d]);
  pending_request_[d] = 0;
  if (phases_[d] == Phase::kDead) return;
  if (project_complete) {
    // Campaign finished while the request was in flight: the device turns
    // to another project's work, matching the synchronous fall-through.
    if (phases_[d] == Phase::kIdle) start_other_project(d);
    return;
  }
  // Everything is issued and outstanding; come back later.
  registry_.add(id_work_denied_);
  if (phases_[d] == Phase::kIdle) {
    const double retry =
        config_.work_request_retry_hours * util::kSecondsPerHour;
    handles_[d].retry = schedule_in(retry, d, Action::kRetry);
  }
  // kOffline: the next go_online issues a fresh request anyway.
}

void VolunteerFleet::begin_segment(std::uint32_t d) {
  HCMD_ASSERT(phases_[d] == Phase::kComputing);
  WorkItem& work = work_[d];
  HCMD_ASSERT(work.active);
  segment_start_[d] = sim_.now();
  const double remaining_ref = work.required_ref - work.progress_ref;
  const double remaining_wall = remaining_ref / device_speed(d);
  if (sim_.now() + remaining_wall < offline_at_[d]) {
    handles_[d].complete = schedule_in(remaining_wall, d, Action::kComplete);
  }
  // Otherwise the offline event will interrupt this segment first.

  // If the volunteer is going to pause/kill the agent mid-workunit, the
  // pause fires at the exact progress point — before completion and
  // possibly before the natural offline event.
  if (work.long_pause_at >= 0.0) {
    const double wall_to_pause =
        std::max(0.0, (work.long_pause_at - work.progress_ref) /
                          device_speed(d));
    if (sim_.now() + wall_to_pause < offline_at_[d] &&
        wall_to_pause < remaining_wall) {
      handles_[d].pause = schedule_in(wall_to_pause, d, Action::kPause);
    }
  }
}

void VolunteerFleet::trigger_long_pause(std::uint32_t d) {
  if (phases_[d] != Phase::kComputing || !work_[d].active) return;
  registry_.add(id_long_pauses_);
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevLongPause,
                    sim_.now(), d,
                    static_cast<std::uint32_t>(work_[d].result_id));
  work_[d].long_pause_at = -1.0;
  long_pause_due_[d] = 1;  // consumed by go_offline's duration draw
  handles_[d].offline.cancel(sim_);
  go_offline(d);
}

void VolunteerFleet::settle_segment(std::uint32_t d, bool interrupted) {
  WorkItem& work = work_[d];
  HCMD_ASSERT(work.active);
  const double wall = sim_.now() - segment_start_[d];
  HCMD_ASSERT(wall >= 0.0);
  if (wall > 0.0) {
    work.attached_wall += wall;
    work.progress_ref += wall * device_speed(d);

    // Run-time accounting: the UD agent accrues wall-clock, the BOINC agent
    // accrues process CPU time.
    const double runtime =
        specs_[d].accounting == volunteer::AccountingMode::kUdWallClock
            ? wall
            : wall * specs_[d].throttle * specs_[d].contention;
    wcg_runtime_.add(sim_.now(), runtime);
    if (work.is_hcmd) hcmd_runtime_.add(sim_.now(), runtime);
  }

  if (interrupted && work.progress_ref < work.required_ref &&
      work.checkpoint_ref > 0.0) {
    // Checkpoints only exist between starting positions: the partially
    // computed position is lost (its wall time stays spent).
    work.progress_ref -= std::fmod(work.progress_ref, work.checkpoint_ref);
  }
}

void VolunteerFleet::on_complete(std::uint32_t d) {
  HCMD_ASSERT(phases_[d] == Phase::kComputing);
  WorkItem& work = work_[d];
  HCMD_ASSERT(work.active);
  settle_segment(d, /*interrupted=*/false);
  work.progress_ref = work.required_ref;  // clamp fp residue

  if (work.is_hcmd) {
    const volunteer::DeviceSpec& spec = specs_[d];
    server::proto::ReportResult report;
    report.result_id = work.result_id;
    report.computation_error = rngs_[d].bernoulli(spec.error_rate);
    report.silent_error = !report.computation_error &&
                          rngs_[d].bernoulli(spec.silent_error_rate);
    // Flaky hardware corrupts each result its own way. Result ids are
    // unique, and the top bit keeps these tags apart from the fault layer's
    // (global id << 32 | counter) tags, whose ids stay below 2^31.
    if (report.silent_error)
      report.corruption_tag = (std::uint64_t{1} << 63) | work.result_id;
    report.reported_runtime =
        spec.reported_runtime(work.attached_wall, work.required_ref);
    report.reference_seconds = work.required_ref;

    if (faults_on() && faults_->server_down(sim_.now())) {
      // The scheduler is dark: keep the finished result in the agent's
      // outbox and retry the upload with capped exponential backoff.
      faults_->note_deferred_upload(sim_.now(), specs_[d].id);
      PendingUpload& up = uploads_[d];
      if (up.active) {
        // The one-slot outbox already holds an undelivered result; the
        // older one is lost (its deadline re-issues the workunit).
        faults_->note_loss(sim_.now(), specs_[d].id, up.report.result_id);
      }
      up.report = report;
      up.attempts = 1;
      up.active = true;
      handles_[d].upload = schedule_in(
          faults_->backoff_delay(0, fault_rngs_[d]), d, Action::kUploadRetry);
    } else {
      post_result(d, report);
    }
  }

  work.active = false;
  phases_[d] = Phase::kIdle;
  request_work(d);
}

void VolunteerFleet::post_result(std::uint32_t d,
                                 server::proto::ReportResult report) {
  const std::uint32_t gid = specs_[d].id;
  if (faults_on()) {
    const faults::ResultFate fate =
        faults_->draw_result_fate(gid, report.silent_error, fault_rngs_[d]);
    if (fate == faults::ResultFate::kLost) {
      // Dropped in flight: the server never sees it, and the deadline tick
      // recovers the workunit via re-issue.
      faults_->note_loss(sim_.now(), gid, report.result_id);
      return;
    }
    if (fate != faults::ResultFate::kClean) {
      report.silent_error = true;
      report.corruption_tag = faults::corruption_tag(gid, ++corruption_seq_[d]);
      if (fate == faults::ResultFate::kCorrupted)
        faults_->note_corrupt(sim_.now(), gid, report.result_id);
      else
        faults_->note_saboteur_corrupt(sim_.now(), gid, report.result_id);
    }
  }

  report.device = gid;
  report.seq = ++msg_seq_[d];
  uplink_.post({sim_.now(), report});
}

void VolunteerFleet::retry_upload(std::uint32_t d) {
  if (phases_[d] == Phase::kDead) return;
  PendingUpload& up = uploads_[d];
  if (!up.active) return;
  if (faults_->server_down(sim_.now())) {
    const std::uint32_t attempt = up.attempts;
    if (up.attempts < 0xFFFFFFFFu) ++up.attempts;
    faults_->note_backoff_retry(sim_.now(), specs_[d].id, attempt);
    handles_[d].upload = schedule_in(
        faults_->backoff_delay(attempt, fault_rngs_[d]), d,
        Action::kUploadRetry);
    return;
  }
  up.active = false;
  post_result(d, up.report);
}

}  // namespace hcmd::client
