#include "server/replayer.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace hcmd::server {

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
  book_.pop_due(t, due_);
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

void Replayer::run_tick(DeadlineBook::Due due) {
  if (faults_.active() && faults_.server_down(due.time)) {
    faults_.note_deadline_deferred(due.time, due.result_id);
    const DeadlineBook::Due moved{faults_.outage_end_after(due.time),
                                  due.result_id};
    if (moved.time > end_) {
      book_.arm(moved.result_id, moved.time);
      return;
    }
    const auto pos = std::upper_bound(
        due_.begin() + static_cast<std::ptrdiff_t>(next_due_), due_.end(),
        moved, [](const DeadlineBook::Due& a, const DeadlineBook::Due& b) {
          if (a.time != b.time) return a.time < b.time;
          return a.result_id < b.result_id;
        });
    due_.insert(pos, moved);
    return;
  }
  const bool timed_out = project_.handle_deadline(due.result_id, due.time);
  if (tracer_ != nullptr)
    tracer_->record(obs::TraceCat::kServer, obs::TraceEv::kSrvTransitionerPass,
                    due.time, static_cast<std::uint32_t>(due.result_id),
                    timed_out ? 1u : 0u);
}

}  // namespace hcmd::server
