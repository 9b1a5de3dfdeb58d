#include "client/fleet.hpp"

#include <algorithm>
#include <cmath>

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
      id_device_deaths_(registry.intern_counter(metric::kDeviceDeaths)) {
  sim_.set_dispatcher(this);
}

void VolunteerFleet::reserve_devices(std::size_t n) {
  devices_.reserve(n);
  if (faults_on()) {
    fault_rngs_.reserve(n);
    corruption_seq_.reserve(n);
    uploads_.reserve(n);
    backoff_attempts_.reserve(n);
  }
}

void VolunteerFleet::set_fault_schedule(faults::FaultSchedule* faults) {
  HCMD_ASSERT_MSG(devices_.empty(),
                  "set_fault_schedule must precede add_device");
  faults_ = faults;
}

std::uint32_t VolunteerFleet::add_device(const volunteer::DeviceSpec& spec,
                                         util::Rng rng, util::Rng fault_rng) {
  HCMD_ASSERT(spec.effective_speed() > 0.0);
  const auto d = static_cast<std::uint32_t>(devices_.size());
  HCMD_ASSERT_MSG(d < (sim::kTagMask >> kActionBits), "too many devices");
  Device& dev = devices_.emplace_back();
  dev.rng = rng;
  dev.spec = spec;
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

void VolunteerFleet::schedule_churn_spike(double t, double death_fraction) {
  const auto spike = static_cast<std::uint32_t>(spikes_.size());
  spikes_.push_back({death_fraction, {}});
  schedule_at(t, spike, Action::kChurnSpike);
}

void VolunteerFleet::arm_at(std::uint32_t d, Action action, double t) {
  sim::Key& live = devices_[d].timer[static_cast<std::size_t>(action)];
  // Under lazy cancel an older timer still queued under this slot would
  // never fire: the fleet would silently lose an event.
  HCMD_ASSERT_MSG(live == sim::kNoTimer,
                  "fleet timer armed while its previous one is live");
  live = sim_.schedule_at(t, d << kActionBits |
                                 static_cast<std::uint32_t>(action));
}

bool VolunteerFleet::fire(sim::Key key) {
  const std::uint32_t tag = sim::tag_of(key);
  const auto action = static_cast<Action>(tag & ((1u << kActionBits) - 1));
  const std::uint32_t d = tag >> kActionBits;
  if (static_cast<std::size_t>(action) < kCancellable) {
    sim::Key& live = devices_[d].timer[static_cast<std::size_t>(action)];
    if (live != key) return false;  // cancelled
    live = sim::kNoTimer;
  }
  switch (action) {
    case Action::kJoin: on_join(d); break;
    case Action::kOnline: go_online(d); break;
    case Action::kOffline: go_offline(d); break;
    case Action::kDeath: on_death(d); break;
    case Action::kPause: trigger_long_pause(d); break;
    case Action::kComplete: on_complete(d); break;
    case Action::kRetry: request_work(d); break;
    case Action::kUploadRetry: retry_upload(d); break;
    case Action::kChurnSpike:
      spikes_[d].result = mass_churn(spikes_[d].death_fraction);
      break;
  }
  return true;
}

void VolunteerFleet::on_join(std::uint32_t d) {
  Device& dev = devices_[d];
  dev.phase = Phase::kOffline;
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevJoin, sim_.now(),
                    d, dev.spec.id);
  schedule_at(sim_.now() + dev.spec.lifetime_seconds, d, Action::kDeath);
  // A joining device is somewhere inside an off period: stagger the first
  // attach by a draw from the off distribution (memoryless, so the residual
  // has the same law), capped at a week. This also prevents a batch of
  // devices created at t = 0 from requesting work in lock-step.
  const double stagger =
      std::min(dev.rng.exponential(dev.spec.off_mean_seconds > 0.0
                                       ? dev.spec.off_mean_seconds
                                       : 1.0),
               util::kSecondsPerWeek);
  arm_in(d, Action::kOnline, stagger);
}

void VolunteerFleet::go_online(std::uint32_t d) {
  Device& dev = devices_[d];
  if (dev.phase == Phase::kDead) return;
  HCMD_ASSERT(dev.phase == Phase::kOffline);
  if (tracer_)
    tracer_->record(obs::TraceCat::kChurn, obs::TraceEv::kDevOnline,
                    sim_.now(), d);
  dev.offline_at = sim_.now() + dev.rng.exponential(dev.spec.on_mean_seconds);
  arm_at(d, Action::kOffline, dev.offline_at);
  if (dev.work.active) {
    dev.phase = Phase::kComputing;
    begin_segment(d);
  } else {
    dev.phase = Phase::kIdle;
    request_work(d);
  }
}

void VolunteerFleet::go_offline(std::uint32_t d) {
  Device& dev = devices_[d];
  if (dev.phase == Phase::kDead) return;
  if (tracer_)
    tracer_->record(obs::TraceCat::kChurn, obs::TraceEv::kDevOffline,
                    sim_.now(), d, dev.long_pause_due ? 1u : 0u);
  cancel(d, Action::kComplete);
  cancel(d, Action::kPause);
  cancel(d, Action::kRetry);
  if (dev.phase == Phase::kComputing) settle_segment(d, /*interrupted=*/true);
  dev.phase = Phase::kOffline;
  double off_len;
  if (dev.long_pause_due) {
    // The volunteer paused/killed the agent for a long stretch; the server
    // will time the workunit out, and the eventual upload arrives late.
    dev.long_pause_due = false;
    off_len = dev.rng.exponential(config_.long_pause_mean_weeks *
                                  util::kSecondsPerWeek);
  } else {
    off_len = dev.rng.exponential(dev.spec.off_mean_seconds);
  }
  arm_in(d, Action::kOnline, off_len);
}

void VolunteerFleet::on_death(std::uint32_t d) {
  Device& dev = devices_[d];
  if (dev.phase == Phase::kDead) return;
  if (dev.phase == Phase::kComputing) settle_segment(d, /*interrupted=*/true);
  dev.phase = Phase::kDead;
  registry_.add(id_device_deaths_);
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevDeath,
                    sim_.now(), d, dev.work.active ? 1u : 0u);
  // Every pending timer of the device goes, the outage-deferred upload
  // retry included.
  for (sim::Key& live : dev.timer) sim_.cancel(live);
  if (faults_on()) {
    // A buffered outbox dies with the device; the deadline recovers the WU.
    PendingUpload& up = uploads_[d];
    if (up.active) {
      faults_->note_loss(sim_.now(), dev.spec.id, up.report.result_id);
      up.active = false;
    }
  }
  // Any assigned workunit is silently dropped; the server learns about it
  // from the deadline. An in-flight work request stays pending: the barrier
  // answer finds the device dead and drops the assignment the same way.
  dev.work.active = false;
}

VolunteerFleet::ChurnResult VolunteerFleet::mass_churn(double death_fraction) {
  ChurnResult r;
  if (!faults_on()) return r;
  for (std::uint32_t d = 0; d < static_cast<std::uint32_t>(devices_.size());
       ++d) {
    const Phase p = devices_[d].phase;
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
  Device& dev = devices_[d];
  if (dev.phase != Phase::kIdle) return;
  HCMD_ASSERT(!dev.work.active);
  // An earlier request is still riding to the barrier; its answer will put
  // the device back to work.
  if (dev.pending_request) return;
  registry_.add(id_work_requests_);

  const double share = schedule_.share_at(sim_.now());
  const bool want_hcmd = dev.rng.bernoulli(share) && !server_complete_;

  if (want_hcmd && faults_on() && faults_->server_down(sim_.now())) {
    // Outage window: don't even reach the scheduler — back off with capped
    // exponential retry (the device sits idle, like a real agent whose
    // project is unreachable). The attempt counter resets on the first
    // request that finds the server up again.
    faults_->note_outage_denied(sim_.now(), dev.spec.id);
    const std::uint32_t attempt = backoff_attempts_[d];
    if (backoff_attempts_[d] < 0xFFFFu) ++backoff_attempts_[d];
    faults_->note_backoff_retry(sim_.now(), dev.spec.id, attempt);
    arm_in(d, Action::kRetry, faults_->backoff_delay(attempt, fault_rngs_[d]));
    return;
  }
  if (want_hcmd && faults_on()) backoff_attempts_[d] = 0;

  if (want_hcmd) {
    dev.pending_request = true;
    server::proto::RequestWork m;
    m.device = dev.spec.id;
    m.seq = ++dev.msg_seq;
    uplink_.post({sim_.now(), m});
    return;
  }

  start_other_project(d);
}

void VolunteerFleet::start_other_project(std::uint32_t d) {
  registry_.add(id_other_project_);
  Device& dev = devices_[d];
  WorkItem item;
  item.active = true;
  item.is_hcmd = false;
  item.required_ref =
      config_.other_project_reference_hours * util::kSecondsPerHour;
  dev.work = item;
  dev.phase = Phase::kComputing;
  begin_segment(d);
}

void VolunteerFleet::deliver(const WorkReply& reply) {
  if (reply.assigned)
    deliver_assignment(reply);
  else
    deliver_denial(reply.device, reply.project_complete);
}

std::size_t VolunteerFleet::awaiting_reply() const {
  return static_cast<std::size_t>(
      std::count_if(devices_.begin(), devices_.end(),
                    [](const Device& dev) { return dev.pending_request; }));
}

void VolunteerFleet::deliver_assignment(const WorkReply& reply) {
  Device& dev = devices_[reply.device];
  HCMD_ASSERT(dev.pending_request);
  dev.pending_request = false;
  if (dev.phase == Phase::kDead) {
    // Assigned to a corpse: silently dropped, exactly like a death right
    // after a synchronous assignment. The deadline recovers the workunit.
    return;
  }
  HCMD_ASSERT(!dev.work.active);
  WorkItem item;
  item.active = true;
  item.is_hcmd = true;
  item.result_id = reply.result_id;
  item.required_ref = reply.reference_seconds;
  item.checkpoint_ref =
      reply.reference_seconds / static_cast<double>(reply.positions);
  if (dev.rng.bernoulli(dev.spec.abandon_rate))
    item.long_pause_at = dev.rng.uniform(0.0, item.required_ref);
  dev.work = item;
  if (dev.phase == Phase::kIdle) {
    dev.phase = Phase::kComputing;
    begin_segment(reply.device);
  }
  // kOffline: the stored item starts when the device re-attaches (the
  // go_online resume branch), like an agent fetching work right before the
  // owner shut the machine down.
}

void VolunteerFleet::deliver_denial(std::uint32_t d, bool project_complete) {
  Device& dev = devices_[d];
  HCMD_ASSERT(dev.pending_request);
  dev.pending_request = false;
  if (dev.phase == Phase::kDead) return;
  if (project_complete) {
    // Campaign finished while the request was in flight: the device turns
    // to another project's work, matching the synchronous fall-through.
    if (dev.phase == Phase::kIdle) start_other_project(d);
    return;
  }
  // Everything is issued and outstanding; come back later.
  registry_.add(id_work_denied_);
  if (dev.phase == Phase::kIdle)
    arm_in(d, Action::kRetry,
           config_.work_request_retry_hours * util::kSecondsPerHour);
  // kOffline: the next go_online issues a fresh request anyway.
}

void VolunteerFleet::begin_segment(std::uint32_t d) {
  Device& dev = devices_[d];
  HCMD_ASSERT(dev.phase == Phase::kComputing);
  const WorkItem& work = dev.work;
  HCMD_ASSERT(work.active);
  dev.segment_start = sim_.now();
  const double remaining_ref = work.required_ref - work.progress_ref;
  const double remaining_wall = remaining_ref / device_speed(d);
  if (sim_.now() + remaining_wall < dev.offline_at)
    arm_in(d, Action::kComplete, remaining_wall);
  // Otherwise the offline event will interrupt this segment first.

  // If the volunteer is going to pause/kill the agent mid-workunit, the
  // pause fires at the exact progress point — before completion and
  // possibly before the natural offline event.
  if (work.long_pause_at >= 0.0) {
    const double wall_to_pause =
        std::max(0.0, (work.long_pause_at - work.progress_ref) /
                          device_speed(d));
    if (sim_.now() + wall_to_pause < dev.offline_at &&
        wall_to_pause < remaining_wall)
      arm_in(d, Action::kPause, wall_to_pause);
  }
}

void VolunteerFleet::trigger_long_pause(std::uint32_t d) {
  Device& dev = devices_[d];
  if (dev.phase != Phase::kComputing || !dev.work.active) return;
  registry_.add(id_long_pauses_);
  if (tracer_)
    tracer_->record(obs::TraceCat::kDevice, obs::TraceEv::kDevLongPause,
                    sim_.now(), d,
                    static_cast<std::uint32_t>(dev.work.result_id));
  dev.work.long_pause_at = -1.0;
  dev.long_pause_due = true;  // consumed by go_offline's duration draw
  cancel(d, Action::kOffline);
  go_offline(d);
}

void VolunteerFleet::settle_segment(std::uint32_t d, bool interrupted) {
  Device& dev = devices_[d];
  WorkItem& work = dev.work;
  HCMD_ASSERT(work.active);
  const double wall = sim_.now() - dev.segment_start;
  HCMD_ASSERT(wall >= 0.0);
  if (wall > 0.0) {
    work.attached_wall += wall;
    work.progress_ref += wall * device_speed(d);

    // Run-time accounting: the UD agent accrues wall-clock, the BOINC agent
    // accrues process CPU time.
    const double runtime =
        dev.spec.accounting == volunteer::AccountingMode::kUdWallClock
            ? wall
            : wall * dev.spec.throttle * dev.spec.contention;
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
  Device& dev = devices_[d];
  HCMD_ASSERT(dev.phase == Phase::kComputing);
  WorkItem& work = dev.work;
  HCMD_ASSERT(work.active);
  settle_segment(d, /*interrupted=*/false);
  work.progress_ref = work.required_ref;  // clamp fp residue

  if (work.is_hcmd) {
    const volunteer::DeviceSpec& spec = dev.spec;
    server::proto::ReportResult report;
    report.result_id = work.result_id;
    report.computation_error = dev.rng.bernoulli(spec.error_rate);
    report.reported_runtime =
        spec.reported_runtime(work.attached_wall, work.required_ref);
    report.reference_seconds = work.required_ref;

    if (faults_on() && faults_->server_down(sim_.now())) {
      // The scheduler is dark: keep the finished result in the agent's
      // outbox and retry the upload with capped exponential backoff.
      faults_->note_deferred_upload(sim_.now(), spec.id);
      PendingUpload& up = uploads_[d];
      if (up.active) {
        // The one-slot outbox already holds an undelivered result; the
        // older one is lost (its deadline re-issues the workunit), and so
        // is its retry: the new result starts its own backoff.
        faults_->note_loss(sim_.now(), spec.id, up.report.result_id);
        cancel(d, Action::kUploadRetry);
      }
      up.report = report;
      up.attempts = 1;
      up.active = true;
      arm_in(d, Action::kUploadRetry,
             faults_->backoff_delay(0, fault_rngs_[d]));
    } else {
      post_result(d, report);
    }
  }

  work.active = false;
  dev.phase = Phase::kIdle;
  request_work(d);
}

void VolunteerFleet::post_result(std::uint32_t d,
                                 server::proto::ReportResult report) {
  Device& dev = devices_[d];
  const std::uint32_t gid = dev.spec.id;
  if (faults_on()) {
    const faults::ResultFate fate =
        faults_->draw_result_fate(gid, fault_rngs_[d]);
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
  report.seq = ++dev.msg_seq;
  uplink_.post({sim_.now(), report});
}

void VolunteerFleet::retry_upload(std::uint32_t d) {
  if (devices_[d].phase == Phase::kDead) return;
  PendingUpload& up = uploads_[d];
  if (!up.active) return;
  if (faults_->server_down(sim_.now())) {
    const std::uint32_t attempt = up.attempts;
    if (up.attempts < 0xFFFFFFFFu) ++up.attempts;
    faults_->note_backoff_retry(sim_.now(), devices_[d].spec.id, attempt);
    arm_in(d, Action::kUploadRetry,
           faults_->backoff_delay(attempt, fault_rngs_[d]));
    return;
  }
  up.active = false;
  post_result(d, up.report);
}

}  // namespace hcmd::client
