#include "faults/schedule.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hcmd::faults {

FaultSchedule::FaultSchedule(FaultPlan plan, const util::Rng& rng)
    : plan_(std::move(plan)) {
  plan_.validate();
  active_ = plan_.enabled();
  // Membership must not depend on how many event-driven draws preceded it,
  // so both populations hash a salt fixed at construction.
  straggler_salt_ = rng.fork("straggler-salt").next_u64();
  saboteur_salt_ = rng.fork("saboteur-salt").next_u64();
}

void FaultSchedule::set_instruments(obs::Tracer* tracer,
                                    obs::Registry* registry) {
  tracer_ = tracer;
  registry_ = registry;
  if (registry_ == nullptr) return;
  ids_.outage_denied = registry_->intern_counter("fault.outage_denied");
  ids_.deferred_uploads = registry_->intern_counter("fault.deferred_uploads");
  ids_.backoff_retries = registry_->intern_counter("fault.backoff_retries");
  ids_.deadline_deferrals =
      registry_->intern_counter("fault.deadline_deferrals");
  ids_.corrupted = registry_->intern_counter("fault.corrupted_results");
  ids_.lost = registry_->intern_counter("fault.lost_results");
  ids_.churn_killed = registry_->intern_counter("fault.churn_killed");
  ids_.stragglers = registry_->intern_counter("fault.straggler_devices");
  ids_.saboteurs = registry_->intern_counter("fault.saboteur_devices");
  ids_.saboteur_corrupted =
      registry_->intern_counter("fault.saboteur_corrupted");
}

bool FaultSchedule::server_down(double now) const {
  for (const OutageWindow& w : plan_.outages)
    if (now >= w.begin_seconds && now < w.end_seconds) return true;
  return false;
}

double FaultSchedule::outage_end_after(double now) const {
  double end = now;
  // Windows are sorted by begin; chained/overlapping windows extend the
  // effective outage, so keep absorbing while the candidate end is covered.
  for (const OutageWindow& w : plan_.outages) {
    if (end >= w.begin_seconds && end < w.end_seconds) end = w.end_seconds;
  }
  return end;
}

double FaultSchedule::backoff_delay(std::uint32_t attempt,
                                    util::Rng& rng) const {
  const double scale = std::ldexp(1.0, static_cast<int>(std::min(attempt, 40u)));
  const double base =
      std::min(plan_.backoff_initial_seconds * scale, plan_.backoff_cap_seconds);
  return base * rng.uniform(0.75, 1.25);
}

ResultFate FaultSchedule::draw_result_fate(std::uint32_t device_id,
                                           util::Rng& rng) const {
  if (rng.bernoulli(plan_.loss_rate)) return ResultFate::kLost;
  if (rng.bernoulli(plan_.corruption_rate)) return ResultFate::kCorrupted;
  if (is_saboteur(device_id) && rng.bernoulli(plan_.saboteur_corruption_rate))
    return ResultFate::kSabotaged;
  return ResultFate::kClean;
}

bool FaultSchedule::is_straggler(std::uint32_t device_id) const {
  if (plan_.straggler_fraction <= 0.0) return false;
  util::SplitMix64 h(straggler_salt_ ^
                     (0x5851f42d4c957f2dULL * (device_id + 1)));
  const double u =
      static_cast<double>(h.next() >> 11) * 0x1.0p-53;  // uniform [0,1)
  return u < plan_.straggler_fraction;
}

void FaultSchedule::note_outage_denied(double now, std::uint32_t device_id) {
  ++counters_.outage_denied_requests;
  metric(ids_.outage_denied);
  trace(obs::TraceEv::kFltOutageDenied, now, device_id);
}

void FaultSchedule::note_deferred_upload(double now, std::uint32_t device_id) {
  ++counters_.deferred_uploads;
  metric(ids_.deferred_uploads);
  trace(obs::TraceEv::kFltUploadDeferred, now, device_id);
}

void FaultSchedule::note_backoff_retry(double now, std::uint32_t device_id,
                                       std::uint32_t attempt) {
  ++counters_.backoff_retries;
  metric(ids_.backoff_retries);
  trace(obs::TraceEv::kFltBackoffRetry, now, device_id, 0,
        static_cast<std::uint16_t>(std::min<std::uint32_t>(attempt, 0xFFFF)));
}

void FaultSchedule::note_deadline_deferred(double now, std::uint64_t result_id) {
  ++counters_.deadline_deferrals;
  metric(ids_.deadline_deferrals);
  trace(obs::TraceEv::kFltDeadlineDeferred, now,
        static_cast<std::uint32_t>(result_id));
}

void FaultSchedule::note_corrupt(double now, std::uint32_t device_id,
                                 std::uint64_t result_id) {
  ++counters_.corrupted_results;
  metric(ids_.corrupted);
  trace(obs::TraceEv::kFltCorrupt, now, static_cast<std::uint32_t>(result_id),
        device_id);
}

void FaultSchedule::note_loss(double now, std::uint32_t device_id,
                              std::uint64_t result_id) {
  ++counters_.lost_results;
  metric(ids_.lost);
  trace(obs::TraceEv::kFltLoss, now, static_cast<std::uint32_t>(result_id),
        device_id);
}

void FaultSchedule::note_churn_spike(double now, std::uint32_t killed,
                                     std::uint32_t alive_before) {
  ++counters_.churn_spikes;
  counters_.churn_killed += killed;
  metric(ids_.churn_killed, killed);
  trace(obs::TraceEv::kFltChurnSpike, now, killed, alive_before);
}

void FaultSchedule::note_straggler(std::uint32_t device_id) {
  ++counters_.straggler_devices;
  metric(ids_.stragglers);
  trace(obs::TraceEv::kFltStraggler, 0.0, device_id);
}

bool FaultSchedule::is_saboteur(std::uint32_t device_id) const {
  if (plan_.saboteur_fraction <= 0.0) return false;
  util::SplitMix64 h(saboteur_salt_ ^
                     (0x5851f42d4c957f2dULL * (device_id + 1)));
  const double u = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
  return u < plan_.saboteur_fraction;
}

void FaultSchedule::note_saboteur(std::uint32_t device_id) {
  ++counters_.saboteur_devices;
  metric(ids_.saboteurs);
  trace(obs::TraceEv::kFltSaboteur, 0.0, device_id);
}

void FaultSchedule::note_saboteur_corrupt(double now, std::uint32_t device_id,
                                          std::uint64_t result_id) {
  ++counters_.saboteur_corrupted_results;
  metric(ids_.saboteur_corrupted);
  trace(obs::TraceEv::kFltSaboteurCorrupt, now,
        static_cast<std::uint32_t>(result_id), device_id);
}

void FaultSchedule::note_outage_boundary(double now, bool begin,
                                         std::uint32_t window) {
  trace(begin ? obs::TraceEv::kFltOutageBegin : obs::TraceEv::kFltOutageEnd,
        now, window);
}

}  // namespace hcmd::faults
