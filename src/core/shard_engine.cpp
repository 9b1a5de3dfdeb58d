#include "core/shard_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "server/credit.hpp"
#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::core {

using sim::kTimeInfinity;
using util::kSecondsPerDay;

namespace {

/// Barrier spacing in simulation seconds. Semantic, not a tuning knob: a
/// work request waits for the next barrier, so the epoch sets assignment
/// latency. An hour divides the campaign's weekly chunks 168 times.
constexpr double kEpochSeconds = 3600.0;

}  // namespace

ShardEngine::Shard::Shard(const server::ShareSchedule& schedule,
                          sim::MetricSet& metrics,
                          const faults::FaultPlan& plan,
                          const util::Rng& faults_rng, obs::Tracer* tracer,
                          const client::AgentConfig& agent)
    : faults(plan, faults_rng), fleet(sim, mailbox, schedule, metrics, agent) {
  faults.set_instruments(tracer, &metrics.registry());
  fleet.set_fault_schedule(&faults);
  fleet.set_tracer(tracer);
}

ShardEngine::ShardEngine(server::ProjectServer& project,
                         const server::ShareSchedule& schedule,
                         sim::MetricSet& metrics,
                         const faults::FaultPlan& fault_plan,
                         util::Rng faults_rng, ShardEngineOptions options)
    : project_(project), metrics_(metrics), options_(options),
      server_faults_(fault_plan, faults_rng), faults_rng_(faults_rng),
      hcmd_results_(metrics.meter_series(client::metric::kHcmdResults)),
      hcmd_useful_results_(
          metrics.meter_series(client::metric::kHcmdUsefulResults)),
      hcmd_useful_ref_seconds_(
          metrics.meter_series(client::metric::kHcmdUsefulRefSeconds)),
      hcmd_credit_(metrics.meter_series(client::metric::kHcmdCredit)) {
  HCMD_ASSERT_MSG(options_.shards >= 1, "shard count must be >= 1");
  server_faults_.set_instruments(options_.tracer, &metrics.registry());
  project_.set_fault_schedule(&server_faults_);

  shards_.reserve(options_.shards);
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    obs::Tracer* shard_tracer = options_.tracer;
    std::unique_ptr<obs::Tracer> own;
    if (options_.tracer != nullptr && options_.shards > 1) {
      // record() is single-writer; give each shard a private ring with the
      // main tracer's geometry and fold them together at finalize().
      own = std::make_unique<obs::Tracer>(options_.tracer->options());
      shard_tracer = own.get();
    }
    shards_.push_back(std::make_unique<Shard>(schedule, metrics, fault_plan,
                                              faults_rng, shard_tracer,
                                              options_.agent));
    shards_.back()->own_tracer = std::move(own);
  }

  // --- fault-plan events (only an *active* plan schedules anything) ---
  if (server_faults_.active()) {
    const std::uint32_t k = options_.shards;
    spike_results_.resize(fault_plan.churn_spikes.size() *
                          static_cast<std::size_t>(k));
    for (std::size_t j = 0; j < fault_plan.churn_spikes.size(); ++j) {
      const auto& spike = fault_plan.churn_spikes[j];
      for (std::uint32_t s = 0; s < k; ++s) {
        shards_[s]->sim.schedule_at(
            spike.time_seconds,
            [this, s, idx = j * k + s, f = spike.death_fraction] {
              spike_results_[idx] = shards_[s]->fleet.mass_churn(f);
            });
      }
      // The spike is one fleet-wide incident: aggregate the shard tallies
      // and note it once, at the spike's own timestamp, in the barrier's
      // deterministic control order.
      schedule_control(spike.time_seconds, [this, j, k,
                                            t = spike.time_seconds] {
        client::VolunteerFleet::ChurnResult total;
        for (std::uint32_t s = 0; s < k; ++s) {
          total.killed += spike_results_[j * k + s].killed;
          total.alive_before += spike_results_[j * k + s].alive_before;
        }
        server_faults_.note_churn_spike(t, total.killed, total.alive_before);
      });
    }
    // Outage boundary markers for the trace (pure observation).
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(fault_plan.outages.size()); ++i) {
      const faults::OutageWindow w = fault_plan.outages[i];
      schedule_control(w.begin_seconds, [this, i, t = w.begin_seconds] {
        server_faults_.note_outage_boundary(t, /*begin=*/true, i);
      });
      schedule_control(w.end_seconds, [this, i, t = w.end_seconds] {
        server_faults_.note_outage_boundary(t, /*begin=*/false, i);
      });
    }
  }
}

void ShardEngine::reserve_devices(std::size_t n) {
  const std::size_t per_shard = n / shards_.size() + 1;
  for (auto& s : shards_) s->fleet.reserve_devices(per_shard);
}

void ShardEngine::reserve_runtimes(std::size_t n) {
  runtime_device_.reserve(n);
  runtime_value_.reserve(n);
}

void ShardEngine::add_device(const volunteer::DeviceSpec& spec,
                             util::Rng rng) {
  const auto shard = static_cast<std::uint32_t>(
      spec.id % static_cast<std::uint32_t>(shards_.size()));
  // The fault stream is forked from the *global* id: which shard hosts the
  // device can never change its loss/corruption/backoff draws.
  util::Rng fault_rng =
      server_faults_.active()
          ? faults_rng_.fork("fault-dev-" + std::to_string(spec.id))
          : util::Rng(0);
  shards_[shard]->fleet.add_device(spec, rng, fault_rng);
  ++device_count_;
}

void ShardEngine::schedule_control(double t, std::function<void()> fn) {
  HCMD_ASSERT_MSG(!events_reserved_,
                  "control items must be registered before the run starts");
  controls_.push_back({t, next_control_seq_++, std::move(fn)});
}

void ShardEngine::run_until(double until) {
  if (!events_reserved_) {
    // Warm-start each shard's event arena near its expected high-water mark
    // (each live device keeps a few timers pending).
    for (auto& s : shards_) s->sim.reserve_events(s->fleet.size() * 2);
    std::stable_sort(controls_.begin(), controls_.end(),
                     [](const ControlItem& a, const ControlItem& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.seq < b.seq;
                     });
    events_reserved_ = true;
  }
  while (now_ < until) {
    const double t = std::min(until, now_ + kEpochSeconds);
    advance_shards(t);
    process_barrier(t);
    now_ = t;
  }
}

void ShardEngine::advance_shards(double until) {
  if (shards_.size() == 1) {
    shards_[0]->sim.run_until(until);
    return;
  }
  if (!pool_) {
    std::size_t threads = options_.threads;
    if (threads == 0) {
      threads = std::thread::hardware_concurrency();
      if (threads == 0) threads = 1;
    }
    threads = std::min(threads, shards_.size());
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  // Shards share nothing mutable while advancing: each owns its sim, fleet,
  // mailbox, fault instance and tracer; the registry's striped counters
  // take concurrent adds exactly.
  util::parallel_for(*pool_, shards_.size(),
                     [&](std::size_t i) { shards_[i]->sim.run_until(until); });
}

void ShardEngine::process_barrier(double t) {
  // --- gather the epoch's uplink traffic under its total order ---
  msg_order_.clear();
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    const auto& msgs = shards_[s]->mailbox.messages();
    for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(msgs.size());
         ++i) {
      msg_order_.push_back(
          {{msgs[i].time, server::MergeLane::kMessage,
            shards_[s]->fleet.spec(msgs[i].device).id, msgs[i].seq},
           s, i});
    }
  }
  std::sort(msg_order_.begin(), msg_order_.end(),
            [](const MessageRef& a, const MessageRef& b) {
              return server::merge_before(a.key, b.key);
            });

  // --- deadlines due this epoch, ascending (time, id) ---
  due_scratch_.clear();
  deadlines_.pop_due(t, due_scratch_);

  // --- replay the union in ascending (time, lane) order; lanes order
  // equal-time items control < deadline < message, mirroring the sequential
  // engine's setup-events-first convention ---
  std::size_t di = 0;
  std::size_t mi = 0;
  const bool outages_possible = server_faults_.active();
  while (true) {
    const bool has_c =
        next_control_ < controls_.size() && controls_[next_control_].time <= t;
    const bool has_d = di < due_scratch_.size();
    const bool has_m = mi < msg_order_.size();
    if (!has_c && !has_d && !has_m) break;
    const double tc = has_c ? controls_[next_control_].time : kTimeInfinity;
    const double td = has_d ? due_scratch_[di].time : kTimeInfinity;
    const double tm = has_m ? msg_order_[mi].key.time : kTimeInfinity;

    if (has_c && tc <= td && tc <= tm) {
      controls_[next_control_++].fn();
      continue;
    }
    if (has_d && td <= tm) {
      const server::DeadlineBook::Due due = due_scratch_[di++];
      if (outages_possible && server_faults_.server_down(due.time)) {
        // The server is dark: no transitioner pass runs. Defer the tick to
        // the moment the outage lifts; the deferred pass sees a time past
        // the original deadline, so the timeout still registers then —
        // unless the result is reported first, which disarms it.
        server_faults_.note_deadline_deferred(due.time, due.result_id);
        const double resume = server_faults_.outage_end_after(due.time);
        if (resume <= t) {
          const server::DeadlineBook::Due moved{resume, due.result_id};
          auto pos = std::upper_bound(
              due_scratch_.begin() + static_cast<std::ptrdiff_t>(di),
              due_scratch_.end(), moved,
              [](const server::DeadlineBook::Due& a,
                 const server::DeadlineBook::Due& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.result_id < b.result_id;
              });
          due_scratch_.insert(pos, moved);
        } else {
          deadlines_.arm(due.result_id, resume);
        }
        continue;
      }
      const bool timed_out = project_.handle_deadline(due.result_id, due.time);
      if (options_.tracer != nullptr)
        options_.tracer->record(obs::TraceCat::kServer,
                                obs::TraceEv::kSrvTransitionerPass, due.time,
                                static_cast<std::uint32_t>(due.result_id),
                                timed_out ? 1u : 0u);
      continue;
    }
    const MessageRef& ref = msg_order_[mi++];
    process_message(ref.shard,
                    shards_[ref.shard]->mailbox.messages()[ref.index]);
  }

  for (auto& s : shards_) s->mailbox.clear();

  // Epoch-stable completion snapshot for the next window's share draws.
  const bool complete = project_.complete();
  for (auto& s : shards_) s->fleet.set_project_complete(complete);
}

void ShardEngine::process_message(std::uint32_t shard,
                                  const client::UplinkMessage& m) {
  Shard& sh = *shards_[shard];
  const std::uint32_t gid = sh.fleet.spec(m.device).id;
  if (m.kind == client::UplinkMessage::Kind::kWorkRequest) {
    auto assignment = project_.request_work(gid, m.time);
    if (assignment.has_value()) {
      // Transitioner deadline tick, independent of the device's fate.
      deadlines_.arm(assignment->result_id, assignment->deadline);
      sh.fleet.deliver_assignment(m.device, *assignment);
    } else {
      sh.fleet.deliver_denial(m.device, project_.complete());
    }
    return;
  }

  const bool was_complete = project_.complete();
  const std::uint64_t completed_before =
      project_.counters().workunits_completed;
  project_.report_result(m.result_id, m.time, m.report);
  // The result is in: retire its deadline tick eagerly instead of letting a
  // dead entry ride the book for another week and a half. (A no-op for late
  // uploads whose tick already fired.)
  deadlines_.disarm(m.result_id);
  hcmd_results_.add(m.time, 1.0);
  if (!m.report.computation_error) {
    // Section 8's points scheme: runtime x agent benchmark score.
    hcmd_credit_.add(m.time, server::claimed_credit(sh.fleet.spec(m.device),
                                                    m.report.reported_runtime));
  }
  if (project_.counters().workunits_completed > completed_before) {
    hcmd_useful_results_.add(m.time, 1.0);
    hcmd_useful_ref_seconds_.add(m.time, m.report.reference_seconds);
  }
  runtime_device_.push_back(gid);
  runtime_value_.push_back(m.report.reported_runtime);
  if (!was_complete && project_.complete()) completion_raw_ = m.time;
}

double ShardEngine::completion_time_daily() const {
  if (completion_raw_ < 0.0) return -1.0;
  // The sequential engine latched completion on a daily periodic tick whose
  // first occurrence was at day 1.
  return kSecondsPerDay *
         std::max(1.0, std::ceil(completion_raw_ / kSecondsPerDay));
}

void ShardEngine::finalize() {
  if (options_.tracer != nullptr && shards_.size() > 1) {
    for (auto& s : shards_)
      if (s->own_tracer) options_.tracer->absorb(*s->own_tracer);
  }
  // Fold the shard-local exact run-time bins into the campaign meter
  // series. ExactSum addition is associative, so the totals are the same
  // for every shard count — including 1 — and the reduction downstream
  // reads metrics.series(name) exactly as before.
  const auto write = [this](const char* name, auto&& series_of) {
    util::TimeBinnedSeries& dst = metrics_.meter_series(name);
    util::ExactBinnedSeries merged(dst.origin(), dst.width());
    for (const auto& s : shards_) merged.merge(series_of(s->fleet));
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const double v = merged.value(i);
      if (v != 0.0)
        dst.add(dst.origin() + (static_cast<double>(i) + 0.5) * dst.width(),
                v);
    }
  };
  write(client::metric::kHcmdRuntime, [](const client::VolunteerFleet& f)
            -> const util::ExactBinnedSeries& {
    return f.hcmd_runtime_series();
  });
  write(client::metric::kWcgRuntime, [](const client::VolunteerFleet& f)
            -> const util::ExactBinnedSeries& {
    return f.wcg_runtime_series();
  });
}

std::uint64_t ShardEngine::processed_events() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->sim.processed_events();
  return n;
}

std::size_t ShardEngine::pending_events() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->sim.pending_events();
  return n;
}

faults::FaultCounters ShardEngine::fault_counters() const {
  faults::FaultCounters total = server_faults_.counters();
  for (const auto& s : shards_) total += s->faults.counters();
  return total;
}

std::vector<double> ShardEngine::runtimes_by_device() const {
  // Counting sort by global device id: the shared buffer is in merged
  // receive order; the sort is stable, so within a device the chronological
  // order is preserved — the Fig. 8 grouping contract.
  std::vector<std::uint32_t> offsets(device_count_ + 1, 0);
  for (std::uint32_t d : runtime_device_) ++offsets[d + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<double> out(runtime_value_.size());
  for (std::size_t i = 0; i < runtime_device_.size(); ++i)
    out[offsets[runtime_device_[i]]++] = runtime_value_[i];
  return out;
}

std::vector<double> ShardEngine::reported_hcmd_runtimes(
    std::uint32_t global_id) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < runtime_device_.size(); ++i)
    if (runtime_device_[i] == global_id) out.push_back(runtime_value_[i]);
  return out;
}

}  // namespace hcmd::core
