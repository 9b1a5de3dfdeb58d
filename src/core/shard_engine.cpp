#include "core/shard_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <variant>

#include "obs/profile.hpp"
#include "server/credit.hpp"
#include "util/duration.hpp"
#include "util/error.hpp"

namespace hcmd::core {

using util::kSecondsPerDay;
using util::kSecondsPerWeek;

namespace {

/// Barrier spacing in simulation seconds. Semantic, not a tuning knob: a
/// work request waits for the next barrier, so the epoch sets assignment
/// latency. An hour divides the campaign's weekly chunks 168 times.
constexpr double kEpochSeconds = 3600.0;
// A shard's timer buckets are one epoch wide, so the open bucket holds about
// one advance's timers.
static_assert(kEpochSeconds == sim::kBucketSeconds);

}  // namespace

WeeklySeries::WeeklySeries(double horizon)
    : hcmd_runtime(0.0, kSecondsPerWeek),
      wcg_runtime(0.0, kSecondsPerWeek),
      results(0.0, kSecondsPerWeek),
      useful_results(0.0, kSecondsPerWeek),
      credit(0.0, kSecondsPerWeek) {
  for (util::TimeBinnedSeries* s :
       {&hcmd_runtime, &wcg_runtime, &results, &useful_results, &credit})
    s->reserve_through(horizon);
}

ShardEngine::Shard::Shard(const server::ShareSchedule& schedule,
                          obs::Registry& registry,
                          const faults::FaultPlan& plan,
                          const util::Rng& faults_rng, obs::Tracer* tracer,
                          const client::AgentConfig& agent)
    : faults(plan, faults_rng),
      fleet(sim, mailbox, schedule, registry, agent) {
  faults.set_instruments(tracer, &registry);
  fleet.set_fault_schedule(&faults);
  fleet.set_tracer(tracer);
}

ShardEngine::ShardEngine(server::ProjectServer& project,
                         const server::ShareSchedule& schedule,
                         obs::Registry& registry, WeeklySeries& weekly,
                         const faults::FaultPlan& fault_plan,
                         util::Rng faults_rng, ShardEngineOptions options)
    : project_(project), weekly_(weekly), options_(options),
      server_faults_(fault_plan, faults_rng), faults_rng_(faults_rng),
      replayer_(project, server_faults_, options.tracer) {
  HCMD_ASSERT_MSG(options_.shards >= 1, "shard count must be >= 1");
  server_faults_.set_instruments(options_.tracer, &registry);
  const std::size_t lanes = std::min<std::size_t>(
      options_.shards,
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  lane_ns_.assign(lanes, 0);
  if (lanes > 1) workers_ = std::make_unique<util::WorkerGroup>(lanes);

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
    shards_.push_back(std::make_unique<Shard>(schedule, registry, fault_plan,
                                              faults_rng, shard_tracer,
                                              options_.agent));
    shards_.back()->own_tracer = std::move(own);
  }

  // --- fault-plan events (only an *active* plan schedules anything) ---
  if (server_faults_.active()) {
    for (std::size_t j = 0; j < fault_plan.churn_spikes.size(); ++j) {
      const auto& spike = fault_plan.churn_spikes[j];
      for (auto& s : shards_)
        s->fleet.schedule_churn_spike(spike.time_seconds,
                                      spike.death_fraction);
      // The spike is one fleet-wide incident: aggregate the shard tallies
      // and note it once, at the spike's own timestamp, in the barrier's
      // deterministic control order.
      schedule_control(spike.time_seconds, [this, j, t = spike.time_seconds] {
        client::VolunteerFleet::ChurnResult total;
        for (const auto& s : shards_) {
          total.killed += s->fleet.churn_result(j).killed;
          total.alive_before += s->fleet.churn_result(j).alive_before;
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
  // Dense, in-order ids put device gid at local index gid / K of shard
  // gid % K, where the barrier delivers its answers; runtimes_by_device
  // counts by id too.
  HCMD_ASSERT_MSG(spec.id == device_count_,
                  "device ids must be dense and added in order");
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

void ShardEngine::run_until(double until) {
  if (!events_reserved_) {
    // Size each shard's timer storage near its expected high-water mark
    // (each live device keeps a few timers pending).
    for (auto& s : shards_) s->sim.reserve_events(s->fleet.size() * 2);
    events_reserved_ = true;
  }
  while (now_ < until) {
    const double t = std::min(until, now_ + kEpochSeconds);
    advance_shards(t);
    process_barrier(t);
    now_ = t;
  }
  // The last barrier's answers, so that the caller sees a quiescent engine.
  for (auto& s : shards_) deliver_replies(*s);
}

void ShardEngine::deliver_replies(Shard& shard) {
  for (const client::WorkReply& reply : shard.downlink)
    shard.fleet.deliver(reply);
  shard.downlink.clear();
}

void ShardEngine::advance_shards(double until) {
  HCMD_PROF_ZONE("engine.advance");
  static const obs::ZoneId kZoneSlowest =
      obs::Profiler::instance().register_zone("engine.shard_slowest");
  // Shards share nothing mutable while advancing: each owns its sim, fleet,
  // mailbox, downlink, fault instance and tracer; the registry's striped
  // counters take concurrent adds exactly.
  const std::size_t lanes = lane_ns_.size();
  const auto lane = [&](std::size_t w) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t s = w; s < shards_.size(); s += lanes) {
      deliver_replies(*shards_[s]);
      shards_[s]->sim.run_until(until);
    }
    lane_ns_[w] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };
  if (workers_)
    workers_->run(lane);
  else
    lane(0);
  obs::Profiler::instance().add(
      kZoneSlowest, *std::max_element(lane_ns_.begin(), lane_ns_.end()));
}

void ShardEngine::process_barrier(double t) {
  {
    // --- gather the epoch's uplink traffic under its total order ---
    HCMD_PROF_ZONE("engine.gather_sort");
    msg_order_.clear();
    for (std::uint32_t s = 0; s < shards_.size(); ++s) {
      const auto& entries = shards_[s]->mailbox.entries();
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(entries.size()); ++i)
        msg_order_.push_back({entries[i].key(), s, i});
    }
    std::sort(msg_order_.begin(), msg_order_.end(),
              [](const MessageRef& a, const MessageRef& b) {
                return server::merge_before(a.key, b.key);
              });
  }

  // --- replay them with the due control items and deadline ticks ---
  HCMD_PROF_ZONE("engine.replay");
  replayer_.open(t);
  for (const MessageRef& ref : msg_order_) {
    replayer_.fire_until(ref.key.time);
    process_message(shards_[ref.shard]->mailbox.entries()[ref.index]);
  }
  replayer_.fire_until(t);

  for (auto& s : shards_) s->mailbox.clear();

  // Epoch-stable completion snapshot for the next window's share draws.
  const bool complete = project_.complete();
  for (auto& s : shards_) s->fleet.set_project_complete(complete);
}

void ShardEngine::process_message(const server::BatchEntry& m) {
  const std::uint32_t gid = m.device();
  const auto k = static_cast<std::uint32_t>(shards_.size());
  Shard& sh = *shards_[gid % k];
  if (std::holds_alternative<server::proto::RequestWork>(m.msg)) {
    const server::Decision decision = replayer_.apply(m);
    client::WorkReply& reply = sh.downlink.emplace_back();
    reply.device = gid / k;
    if (const auto* a = std::get_if<server::proto::Assignment>(&decision)) {
      reply.assigned = true;
      reply.result_id = a->result_id;
      reply.reference_seconds = a->reference_seconds;
      reply.positions = a->isep_end - a->isep_begin;
    } else {
      const auto* denial = std::get_if<server::proto::NoWork>(&decision);
      // The fleet only asks while the server is up: never Busy.
      HCMD_ASSERT(denial != nullptr);
      reply.project_complete = denial->project_complete;
    }
    return;
  }

  const bool was_complete = project_.complete();
  const std::uint64_t completed_before =
      project_.counters().workunits_completed;
  const server::Decision reply = replayer_.apply(m);
  // A device reports each of its results once, while the server is up; a
  // duplicate here is a delivery bug, not a network retry.
  const auto* ack = std::get_if<server::proto::ReportAck>(&reply);
  HCMD_ASSERT_MSG(ack != nullptr && !ack->duplicate,
                  "result reported twice or refused");
  const auto& report = std::get<server::proto::ReportResult>(m.msg);
  weekly_.results.add(m.time, 1.0);
  if (!report.computation_error) {
    // Section 8's points scheme: runtime x agent benchmark score.
    weekly_.credit.add(m.time,
                       server::claimed_credit(sh.fleet.spec(gid / k),
                                              report.reported_runtime));
  }
  if (project_.counters().workunits_completed > completed_before)
    weekly_.useful_results.add(m.time, 1.0);
  runtime_device_.push_back(gid);
  runtime_value_.push_back(report.reported_runtime);
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
  // Fold the shard-local exact run-time bins into the weekly series.
  // ExactSum addition is associative, so the totals are the same for every
  // shard count, including 1.
  util::ExactBinnedSeries hcmd(0.0, kSecondsPerWeek);
  util::ExactBinnedSeries wcg(0.0, kSecondsPerWeek);
  for (const auto& s : shards_) {
    hcmd.merge(s->fleet.hcmd_runtime_series());
    wcg.merge(s->fleet.wcg_runtime_series());
  }
  const auto fold = [](const util::ExactBinnedSeries& merged,
                       util::TimeBinnedSeries& dst) {
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const double v = merged.value(i);
      if (v != 0.0) dst.add(dst.bin_mid(i), v);
    }
  };
  fold(hcmd, weekly_.hcmd_runtime);
  fold(wcg, weekly_.wcg_runtime);
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
