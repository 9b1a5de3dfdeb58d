#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "client/fleet.hpp"
#include "core/shard_engine.hpp"
#include "obs/profile.hpp"
#include "server/credit.hpp"
#include "dedicated/grid.hpp"
#include "util/duration.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hcmd::core {

using util::kSecondsPerDay;
using util::kSecondsPerWeek;

/// Phase I ran about half a year; used only to pro-rate reservation hints
/// for shorter horizons (never affects simulated outcomes).
constexpr double kNominalCampaignWeeks = 26.0;

void CampaignConfig::validate() const {
  if (scale <= 0.0 || scale > 1.0)
    throw ConfigError("CampaignConfig: scale outside (0, 1]");
  if (max_weeks <= 0.0)
    throw ConfigError("CampaignConfig: max_weeks must be > 0");
  if (mct_target_mean_seconds <= 0.0)
    throw ConfigError("CampaignConfig: mct_target_mean_seconds must be > 0");
  if (shards == 0)
    throw ConfigError("CampaignConfig: shards must be >= 1");
  for (const auto& s : snapshots) {
    if (util::days_between(start_date, s.date) < 0)
      throw ConfigError("CampaignConfig: snapshot before campaign start");
  }
  faults.validate();
}

Workload build_workload(const CampaignConfig& config) {
  HCMD_PROF_ZONE("campaign.build_workload");
  config.validate();
  Workload w;
  w.benchmark = proteins::generate_benchmark(config.benchmark);
  w.cost_model = std::make_unique<timing::CostModel>(
      timing::CostModel::calibrated(w.benchmark,
                                    config.mct_target_mean_seconds,
                                    config.cost_noise_sigma));
  w.mct = std::make_unique<timing::MctMatrix>(
      timing::MctMatrix::from_model(w.benchmark, *w.cost_model));
  return w;
}

void Workload::release_geometry() {
  for (auto& p : benchmark.proteins)
    p = proteins::ReducedProtein(p.id(), p.name(), {});
  cost_model.reset();
}

namespace {

/// Launch ranks: cheapest receptor first ("they decided to first launch the
/// protein that required less computing time").
std::vector<std::uint32_t> launch_ranks(const proteins::Benchmark& benchmark,
                                        const timing::MctMatrix& mct) {
  const std::vector<double> cost = mct.per_receptor_seconds(benchmark);
  std::vector<std::uint32_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return cost[a] < cost[b];
                   });
  std::vector<std::uint32_t> rank(cost.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) rank[order[i]] = i;
  return rank;
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  return run_campaign(config, CampaignInstruments{});
}

CampaignReport run_campaign(const CampaignConfig& config,
                            const CampaignInstruments& instruments) {
  config.validate();
  CampaignReport report;

  // Sequential self-profile phases (setup -> weekly DES -> reduction) share
  // one function scope, so an optional zone is moved along instead of the
  // scope macro.
  static const obs::ZoneId kZoneSetup =
      obs::Profiler::instance().register_zone("campaign.grid_setup");
  static const obs::ZoneId kZoneWeek =
      obs::Profiler::instance().register_zone("campaign.des_week");
  static const obs::ZoneId kZoneReduce =
      obs::Profiler::instance().register_zone("campaign.reduce");
  std::optional<obs::ScopedZone> phase_zone;

  // --- workload, stats and the scaled catalogue, in a scope of their own:
  // once the catalogue and the launch ranks exist, the DES needs nothing
  // from the benchmark or the matrix, so the whole workload is freed before
  // the grid structures are built (it is several MB per run).
  std::vector<packaging::Workunit> catalog;
  std::vector<std::uint32_t> rank;
  std::uint32_t receptor_count = 0;
  {
    Workload w = build_workload(config);
    const auto& bench = w.benchmark;
    const auto& mct = *w.mct;
    receptor_count = static_cast<std::uint32_t>(bench.proteins.size());
    report.total_reference_seconds = mct.total_reference_seconds(bench);
    // Packaging and launch ranking only read the timing marginals; the
    // pseudo-atom geometry is dead weight from here on.
    w.release_geometry();

    // --- full-scale packaging statistics (exact counts) ---
    const packaging::PackagingStats full_stats =
        packaging::compute_stats(bench, mct, config.packaging);
    report.full_workunit_count = full_stats.workunit_count;
    report.nominal_wu_mean_seconds = full_stats.mean_reference_seconds;

    // --- scaled catalogue in launch order ---
    const auto stride = static_cast<std::uint64_t>(
        std::max<long long>(1, std::llround(1.0 / config.scale)));
    report.scale = 1.0 / static_cast<double>(stride);
    catalog = packaging::build_catalog(bench, mct, config.packaging, stride);
    rank = launch_ranks(bench, mct);
  }
  const double scale = report.scale;
  phase_zone.emplace(kZoneSetup);
  // In-place sort: (rank, ligand, isep_begin) is unique per workunit, so
  // this strict total order needs no stability (stable_sort would allocate
  // a catalogue-sized temporary buffer).
  std::sort(catalog.begin(), catalog.end(),
            [&](const packaging::Workunit& a, const packaging::Workunit& b) {
              if (rank[a.receptor] != rank[b.receptor])
                return rank[a.receptor] < rank[b.receptor];
              if (a.ligand != b.ligand) return a.ligand < b.ligand;
              return a.isep_begin < b.isep_begin;
            });
  HCMD_ASSERT(!catalog.empty());

  // --- grid components ---
  const server::ShareSchedule schedule(config.share);
  server::ServerConfig server_cfg = config.server;
  server_cfg.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
  server::ProjectServer project(std::move(catalog), server_cfg);

  // Weekly bins for the whole horizon are reserved up front; the weekly
  // appends never allocate mid-run.
  obs::Registry registry;
  WeeklySeries weekly(config.max_weeks * kSecondsPerWeek);
  project.set_instruments(instruments.tracer, &registry);
  util::Rng rng(config.seed);
  util::Rng fleet_rng = rng.fork("fleet");
  util::Rng agent_rng_root = rng.fork("agents");

  // --- fleet population ---
  // The whole population is drawn before the engine exists: the shard bound
  // (at most one shard per device) can then be validated exactly, before a
  // misconfigured run allocates `shards` sub-simulations.
  const volunteer::WcgPopulationModel population(config.population);
  const double attached =
      volunteer::expected_attached_fraction(config.devices);
  const double day0 = static_cast<double>(util::days_between(
      config.population.launch, config.start_date));
  HCMD_ASSERT_MSG(day0 > 0, "campaign starts before the grid's launch");
  const double max_days = config.max_weeks * 7.0;

  // Fleet-sizing margin over the analytic attached-fraction estimate:
  // compensates availability lost to long pauses and to devices dying
  // mid-workunit, which the closed-form estimate cannot see.
  constexpr double kFleetMargin = 1.12;
  auto target_devices = [&](double day) {
    return kFleetMargin * scale * population.base_vftp(day0 + day) / attached;
  };

  std::vector<volunteer::DeviceSpec> specs;
  // Reserve from the *analytic* expected arrival count (initial cohort +
  // growth + churn replacement means) — drawing the estimate from the RNG
  // would perturb the stream.
  {
    double expected = std::max(0.0, target_devices(0.0));
    for (double day = 0.0; day < max_days; day += 1.0)
      expected +=
          std::max(0.0, target_devices(day + 1.0) - target_devices(day)) +
          target_devices(day) / config.devices.lifetime_mean_days;
    specs.reserve(static_cast<std::size_t>(expected * 1.05) + 16);
  }

  std::uint32_t next_device_id = 0;
  auto add_device = [&](double join_seconds) {
    const double years = (day0 + join_seconds / kSecondsPerDay) / 365.0;
    specs.push_back(volunteer::make_device(next_device_id++, join_seconds,
                                           years, fleet_rng, config.devices));
  };

  const auto initial = static_cast<std::uint64_t>(
      std::max<long long>(0, std::llround(target_devices(0.0))));
  for (std::uint64_t i = 0; i < initial; ++i) add_device(0.0);
  for (double day = 0.0; day < max_days; day += 1.0) {
    const double growth =
        std::max(0.0, target_devices(day + 1.0) - target_devices(day));
    const double replacement =
        target_devices(day) /
        config.devices.lifetime_mean_days;  // churn compensation
    const std::uint64_t arrivals = fleet_rng.poisson(growth + replacement);
    for (std::uint64_t i = 0; i < arrivals; ++i)
      add_device((day + fleet_rng.next_double()) * kSecondsPerDay);
  }
  report.devices_simulated = specs.size();
  if (config.shards > specs.size())
    throw ConfigError("CampaignConfig: shards (" +
                      std::to_string(config.shards) +
                      ") exceed the simulated device count (" +
                      std::to_string(specs.size()) + ")");

  // --- engine ---
  // The epoch-barrier engine owns the shard simulations, the barrier
  // replay and the whole fault layer (one schedule per shard plus a
  // server-side instance, every one forked from the same dedicated stream,
  // so they classify stragglers and see outage windows identically). An
  // inert fault plan makes no draws and schedules nothing: a faults-off run
  // is bit-exact with a build that has no fault layer at all.
  ShardEngineOptions engine_opts;
  engine_opts.shards = config.shards;
  engine_opts.tracer = instruments.tracer;
  engine_opts.agent = config.agent;
  ShardEngine engine(project, schedule, registry, weekly, config.faults,
                     rng.fork("faults"), engine_opts);
  engine.reserve_devices(specs.size());
  // Fig. 8 buffer: one entry per received HCMD result. A completed run
  // receives ~catalogue x nominal redundancy; a shorter horizon cannot
  // receive more than roughly its linear share of that, so short bench
  // runs do not pay the full-campaign reservation.
  engine.reserve_runtimes(static_cast<std::size_t>(
      static_cast<double>(project.catalog().size()) * 1.5 *
          std::min(1.0, config.max_weeks / kNominalCampaignWeeks) +
      1024.0));
  for (const auto& spec : specs)
    engine.add_device(spec,
                      agent_rng_root.fork("agent-" + std::to_string(spec.id)));
  // The specs live on inside the shard fleets; free the staging copy.
  std::vector<volunteer::DeviceSpec>().swap(specs);

  // --- Fig. 7 snapshots ---
  std::vector<double> total_per_receptor =
      project.total_reference_seconds_per_receptor(receptor_count);
  // Display order: launch order (cheapest receptor first), like the paper's
  // X axis.
  std::vector<std::uint32_t> display(receptor_count);
  std::iota(display.begin(), display.end(), 0u);
  std::stable_sort(display.begin(), display.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return rank[a] < rank[b];
                   });
  auto reorder = [&](const std::vector<double>& v) {
    std::vector<double> out(v.size());
    for (std::size_t i = 0; i < display.size(); ++i) out[i] = v[display[i]];
    return out;
  };
  for (const auto& snap : config.snapshots) {
    const double t = static_cast<double>(util::days_between(
                         config.start_date, snap.date)) *
                     kSecondsPerDay;
    engine.schedule_control(t, [&, label = snap.label, t] {
      report.snapshots.push_back(analysis::make_snapshot(
          label, t,
          reorder(project.completed_reference_seconds_per_receptor(
              receptor_count)),
          reorder(total_per_receptor)));
    });
  }

  // --- run, chunked weekly so we can stop shortly after completion ---
  phase_zone.reset();
  const double max_seconds = config.max_weeks * kSecondsPerWeek;
  while (engine.now() < max_seconds) {
    const double done_at = engine.completion_time_daily();
    if (done_at >= 0.0 && engine.now() >= done_at + kSecondsPerWeek)
      break;  // one drain week for late arrivals, then stop
    {
      obs::ScopedZone week_zone(kZoneWeek);
      engine.run_until(std::min(max_seconds, engine.now() + kSecondsPerWeek));
    }
    if (instruments.on_week) {
      // Between barriers and after the week's events drained: the callback
      // observes a quiescent engine and cannot perturb it.
      WeeklyProgress progress;
      progress.week = engine.now() / kSecondsPerWeek;
      progress.results_received = project.counters().results_received;
      progress.workunits_completed = project.counters().workunits_completed;
      progress.workunits_total = project.catalog().size();
      progress.devices = engine.device_count();
      progress.pending_events = engine.pending_events();
      instruments.on_week(progress);
    }
  }
  // Fold shard tracers and the exact per-shard run-time bins into the
  // weekly series before reduction reads them.
  engine.finalize();
  phase_zone.emplace(kZoneReduce);

  const double completion_time = engine.completion_time_daily();
  report.completed = completion_time >= 0.0;
  report.completion_weeks = report.completed
                                ? completion_time / kSecondsPerWeek
                                : config.max_weeks;
  report.shards = config.shards;
  report.events_processed = engine.processed_events();

  // --- series and aggregates ---
  const auto weeks = static_cast<std::size_t>(
      std::ceil(report.completion_weeks - 1e-9));
  auto rescaled_series = [&](const util::TimeBinnedSeries& s,
                             double divisor) {
    std::vector<double> out;
    out.reserve(weeks);
    for (std::size_t i = 0; i < weeks; ++i)
      out.push_back((i < s.size() ? s.value(i) : 0.0) / divisor / scale);
    return out;
  };
  report.hcmd_vftp_weekly =
      rescaled_series(weekly.hcmd_runtime, kSecondsPerWeek);
  report.wcg_vftp_weekly = rescaled_series(weekly.wcg_runtime, kSecondsPerWeek);
  report.results_received_weekly = rescaled_series(weekly.results, 1.0);
  report.results_useful_weekly = rescaled_series(weekly.useful_results, 1.0);
  report.credit_weekly = rescaled_series(weekly.credit, 1.0);
  for (double c : report.credit_weekly) report.total_credit += c;
  report.credit_reference_processors = server::credit_vftp(
      report.total_credit,
      static_cast<double>(weeks) * kSecondsPerWeek);

  auto mean_of = [](const std::vector<double>& v, std::size_t first,
                    std::size_t last) {
    if (first >= last || last > v.size()) return 0.0;
    double sum = 0.0;
    for (std::size_t i = first; i < last; ++i) sum += v[i];
    return sum / static_cast<double>(last - first);
  };
  report.full_power_start_week =
      schedule.full_power_start() / kSecondsPerWeek;
  const auto fp_week = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(weeks),
                       std::ceil(report.full_power_start_week)));
  report.avg_hcmd_vftp_whole = mean_of(report.hcmd_vftp_weekly, 0, weeks);
  report.avg_hcmd_vftp_fullpower =
      mean_of(report.hcmd_vftp_weekly, fp_week, weeks);
  report.avg_wcg_vftp_whole = mean_of(report.wcg_vftp_weekly, 0, weeks);

  report.counters = project.counters();
  report.faults.enabled = engine.faults_active();
  report.faults.plan = config.faults;
  report.faults.counters = engine.fault_counters();
  report.validation.policy = project.policy().summary();
  report.validation.corruption_injected =
      report.faults.counters.corrupted_results +
      report.faults.counters.saboteur_corrupted_results;
  report.validation.corruption_assimilated =
      report.counters.corrupt_assimilated;
  report.redundancy_factor = report.counters.redundancy_factor();
  report.useful_fraction = report.counters.useful_fraction();
  report.speeddown.reported_runtime_seconds =
      report.counters.reported_runtime_seconds;
  report.speeddown.useful_reference_seconds =
      report.counters.useful_reference_seconds;
  report.speeddown.redundancy_factor = report.redundancy_factor;

  // --- Fig. 8: reported runtimes of completed HCMD workunits ---
  const std::vector<double> runtimes = engine.runtimes_by_device();
  report.runtime_summary = util::summarize(runtimes);
  for (double r : runtimes)
    report.runtime_hours_hist.add(r / util::kSecondsPerHour);

  // --- telemetry snapshot: drain the registry into the report ---
  for (const auto& name : registry.counter_names())
    report.telemetry_counters.push_back({name, registry.total(name)});
  for (const auto& name : registry.histogram_names()) {
    const obs::LogHistogram* h = registry.histogram(registry.find(name));
    if (!h) continue;
    TelemetryHistogram th;
    th.name = name;
    th.count = h->total();
    th.mean = h->mean();
    th.p50 = h->quantile(0.5);
    th.p90 = h->quantile(0.9);
    th.p99 = h->quantile(0.99);
    th.min = h->min();
    th.max = h->max();
    report.telemetry_histograms.push_back(std::move(th));
  }

  return report;
}

}  // namespace hcmd::core
