#include "server/replayer.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/error.hpp"

namespace hcmd::server {

namespace {

/// A reply of type M to `entry`, echoing its routing pair.
template <class M>
M reply_to(const BatchEntry& entry) {
  M m;
  m.device = entry.device();
  m.seq = entry.seq();
  return m;
}

/// The transitioner's order: time, then result id, so equal-time ticks
/// run in the same order at any shard count.
bool tick_before(const DeadlineTick& a, const DeadlineTick& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.result_id < b.result_id;
}

/// Heap order for the deferred ticks: the earliest (time, id) on top.
bool tick_after(const DeadlineTick& a, const DeadlineTick& b) {
  return tick_before(b, a);
}

}  // namespace

void Replayer::schedule_control(double t, std::function<void()> fn) {
  HCMD_ASSERT_MSG(!opened_,
                  "control items must be registered before the run starts");
  controls_.push_back({t, std::move(fn)});
}

void Replayer::open(double t) {
  HCMD_ASSERT_MSG(next_due_ == due_.size(), "previous batch not drained");
  if (!opened_) {
    // Stable: registration order breaks time ties.
    std::stable_sort(controls_.begin(), controls_.end(),
                     [](const Control& a, const Control& b) {
                       return a.time < b.time;
                     });
    opened_ = true;
  }
  end_ = t;
  due_.clear();
  next_due_ = 0;
  project_.pop_due(t, due_);
  const auto from_server = static_cast<std::ptrdiff_t>(due_.size());
  while (!deferred_.empty() && deferred_.front().time <= t) {
    std::pop_heap(deferred_.begin(), deferred_.end(), tick_after);
    due_.push_back(deferred_.back());
    deferred_.pop_back();
  }
  std::inplace_merge(due_.begin(), due_.begin() + from_server, due_.end(),
                     tick_before);
}

void Replayer::fire_until(double t) {
  while (true) {
    const bool has_c = next_control_ < controls_.size() &&
                       controls_[next_control_].time <= t;
    const bool has_d = next_due_ < due_.size() && due_[next_due_].time <= t;
    if (has_c &&
        (!has_d || controls_[next_control_].time <= due_[next_due_].time))
      controls_[next_control_++].fn();
    else if (has_d)
      run_tick(due_[next_due_++]);
    else
      return;
  }
}

Decision Replayer::apply(const BatchEntry& entry) {
  const double now = entry.time;
  const auto* req = std::get_if<proto::RequestWork>(&entry.msg);
  const auto* rep = std::get_if<proto::ReportResult>(&entry.msg);
  HCMD_ASSERT_MSG(req != nullptr || rep != nullptr,
                  "apply takes work requests and reports");

  if (faults_.active() && faults_.server_down(now)) {
    // Busy, not NoWork: "come back after the outage" is not "no work
    // left", and a finished upload stays on the device until then. (The
    // simulated fleet never calls while the server is down.)
    if (req != nullptr) faults_.note_outage_denied(now, req->device);
    auto busy = reply_to<proto::Busy>(entry);
    busy.retry_after = faults_.outage_end_after(now) - now;
    return busy;
  }

  if (req != nullptr) {
    const std::optional<Assignment> a = project_.request_work(req->device, now);
    if (!a.has_value()) {
      auto denial = reply_to<proto::NoWork>(entry);
      denial.project_complete = project_.complete();
      return denial;
    }
    auto wire = reply_to<proto::Assignment>(entry);
    wire.result_id = a->result_id;
    wire.workunit = a->workunit.id;
    wire.receptor = a->workunit.receptor;
    wire.ligand = a->workunit.ligand;
    wire.isep_begin = a->workunit.isep_begin;
    wire.isep_end = a->workunit.isep_end;
    wire.reference_seconds = a->workunit.reference_seconds;
    wire.deadline = a->deadline;
    return wire;
  }

  if (rep->result_id >= project_.counters().results_sent ||
      project_.result(rep->result_id).device_id != rep->device) {
    // Only the assignee may return a result: another device's report
    // would complete, corrupt or discredit work it never held.
    auto error = reply_to<proto::ErrorMsg>(entry);
    error.code = proto::ErrorCode::kUnknownResult;
    return error;
  }
  auto ack = reply_to<proto::ReportAck>(entry);
  if (project_.result_reported(rep->result_id)) {
    // A replay (a network retry after a lost ack): the state the instance
    // already ended in, and no counter, quorum slot or credit moves.
    ack.state = project_.result(rep->result_id).state;
    ack.duplicate = true;
    return ack;
  }
  ack.state = project_.report_result(rep->result_id, now, rep->to_report());
  return ack;
}

void Replayer::run_tick(DeadlineTick tick) {
  if (faults_.active() && faults_.server_down(tick.time)) {
    faults_.note_deadline_deferred(tick.time, tick.result_id);
    const DeadlineTick moved{faults_.outage_end_after(tick.time),
                             tick.result_id};
    if (moved.time > end_) {
      deferred_.push_back(moved);
      std::push_heap(deferred_.begin(), deferred_.end(), tick_after);
      return;
    }
    const auto pos = std::upper_bound(
        due_.begin() + static_cast<std::ptrdiff_t>(next_due_), due_.end(),
        moved, tick_before);
    due_.insert(pos, moved);
    return;
  }
  const bool timed_out = project_.handle_deadline(tick.result_id, tick.time);
  if (tracer_ != nullptr)
    tracer_->record(obs::TraceCat::kServer, obs::TraceEv::kSrvTransitionerPass,
                    tick.time, static_cast<std::uint32_t>(tick.result_id),
                    timed_out ? 1u : 0u);
}

}  // namespace hcmd::server
