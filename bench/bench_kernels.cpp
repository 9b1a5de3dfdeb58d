// google-benchmark microbenchmarks for the hot kernels: interaction energy,
// minimiser steps, the event queue, the scheduler RPC path and the
// packaging stream.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "bench_memory.hpp"
#include "client/loadgen.hpp"
#include "client/wire.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "core/campaign.hpp"
#include "docking/engine.hpp"
#include "docking/maxdo.hpp"
#include "packaging/packager.hpp"
#include "proteins/generator.hpp"
#include "server/server.hpp"
#include "sim/simulation.hpp"
#include "timing/mct_matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcmd;

void BM_InteractionEnergy(benchmark::State& state) {
  const auto receptor = proteins::generate_protein(
      1, static_cast<std::uint32_t>(state.range(0)), 1.0, 11);
  const auto ligand = proteins::generate_protein(
      2, static_cast<std::uint32_t>(state.range(0)), 1.0, 12);
  proteins::Dof6 pose;
  pose.x = receptor.bounding_radius() + ligand.bounding_radius() + 2.0;
  const docking::EnergyParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(docking::interaction_energy(
        receptor, ligand, pose.to_transform(), params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(receptor.size()) *
                          static_cast<std::int64_t>(ligand.size()));
}
BENCHMARK(BM_InteractionEnergy)->Arg(50)->Arg(150)->Arg(400)->Arg(1200);

void BM_InteractionEnergyEngine(benchmark::State& state) {
  const auto receptor = proteins::generate_protein(
      1, static_cast<std::uint32_t>(state.range(0)), 1.0, 11);
  const auto ligand = proteins::generate_protein(
      2, static_cast<std::uint32_t>(state.range(0)), 1.0, 12);
  proteins::Dof6 pose;
  pose.x = receptor.bounding_radius() + ligand.bounding_radius() + 2.0;
  const docking::DockingEngine engine(receptor, ligand,
                                      docking::EnergyParams{});
  auto scratch = engine.make_scratch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.energy(pose.to_transform(), scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(receptor.size()) *
                          static_cast<std::int64_t>(ligand.size()));
}
BENCHMARK(BM_InteractionEnergyEngine)->Arg(50)->Arg(150)->Arg(400)->Arg(1200);

// Minimiser hot path: DockingEngine with cell-list pruning + SoA + scratch
// reuse, across receptor sizes.
void BM_Minimize(benchmark::State& state) {
  const auto n_atoms = static_cast<std::uint32_t>(state.range(0));
  const auto receptor = proteins::generate_protein(1, n_atoms, 1.0, 13);
  const auto ligand = proteins::generate_protein(2, 60, 1.1, 14);
  proteins::Dof6 start;
  start.x = receptor.bounding_radius() + ligand.bounding_radius() + 4.0;
  const docking::DockingEngine engine(receptor, ligand,
                                      docking::EnergyParams{});
  auto scratch = engine.make_scratch();
  docking::MinimizerParams params;
  params.max_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(docking::minimize(engine, start, params, scratch));
  }
}
BENCHMARK(BM_Minimize)->ArgName("atoms")->Arg(80)->Arg(400)->Arg(1200);

// Lockstep batch minimisation vs B sequential scalar minimisations over
// the same starts (batch:0 = scalar loop, batch:1 = minimize_batch). The
// batch/scalar ratio at a given (atoms, lanes) is the SIMD amortisation
// win: one receptor traversal serves all lanes, and results are
// bit-identical either way (docking_batch_test enforces it).
void BM_MinimizeBatch(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const auto n_atoms = static_cast<std::uint32_t>(state.range(1));
  const auto lanes = static_cast<std::size_t>(state.range(2));
  const auto receptor = proteins::generate_protein(1, n_atoms, 1.0, 13);
  const auto ligand = proteins::generate_protein(2, 60, 1.1, 14);
  const docking::DockingEngine engine(receptor, ligand,
                                      docking::EnergyParams{});
  docking::MinimizerParams params;
  params.max_iterations = 10;
  std::vector<proteins::Dof6> starts(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    starts[b].x = receptor.bounding_radius() * 0.6;
    starts[b].gamma = 0.6 * static_cast<double>(b);  // the 10 gamma starts
  }
  std::vector<docking::MinimizationResult> results(lanes);
  if (batched) {
    docking::BatchMinimizerWork work;
    work.scratch = engine.make_batch_scratch(12 * lanes);
    for (auto _ : state) {
      docking::minimize_batch(engine, starts, params, work, results);
      benchmark::DoNotOptimize(results.data());
    }
  } else {
    auto scratch = engine.make_scratch();
    for (auto _ : state) {
      for (std::size_t b = 0; b < lanes; ++b)
        results[b] = docking::minimize(engine, starts[b], params, scratch);
      benchmark::DoNotOptimize(results.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_MinimizeBatch)
    ->ArgNames({"batch", "atoms", "lanes"})
    ->Args({0, 400, 10})
    ->Args({1, 400, 10})
    ->Args({0, 1200, 10})
    ->Args({1, 1200, 10});

// One full MaxDo starting position (all 21 rotation couples, the paper's
// 10 gamma starts each) on the cell-list engine: scalar gamma
// loop (batch 0) vs lockstep gamma batching (batch 1). The batch:1/batch:0
// ratio at 1200 atoms is gated as a same-run speedup in tools/bench_gate.py.
void BM_MaxDoPosition(benchmark::State& state) {
  const auto n_atoms = static_cast<std::uint32_t>(state.range(0));
  const auto receptor = proteins::generate_protein(1, n_atoms, 1.0, 13);
  const auto ligand = proteins::generate_protein(2, 60, 1.1, 14);
  docking::MaxDoParams params;
  params.minimizer.max_iterations = 5;
  params.batch_gamma = state.range(1) != 0;
  docking::MaxDoProgram program(receptor, ligand, params);
  docking::MaxDoTask task;
  task.isep_begin = 0;
  task.isep_end = 1;
  for (auto _ : state) {
    docking::MaxDoCheckpoint cp;
    program.run(task, cp);
    benchmark::DoNotOptimize(cp.records.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(task.rotations()));
}
BENCHMARK(BM_MaxDoPosition)
    ->ArgNames({"atoms", "batch"})
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({1200, 0})
    ->Args({1200, 1});

// Counts fired timers. Tag 0 is a one-shot that always fires; tag t > 0 is
// a cancellable timer whose live key sits in live[t - 1], and a key no
// longer there is refused (lazy cancel, as the fleet does it).
struct BenchTimers final : sim::Dispatcher {
  explicit BenchTimers(sim::Simulation& s) { s.set_dispatcher(this); }
  bool fire(sim::Key key) override {
    const std::uint32_t tag = sim::tag_of(key);
    if (tag > 0) {
      sim::Key& slot = live[tag - 1];
      if (slot != key) return false;
      slot = sim::kNoTimer;
    }
    ++fired;
    return true;
  }
  std::vector<sim::Key> live;
  std::uint64_t fired = 0;
};

// Steady-state schedule/fire churn at a constant pending depth, in two
// shapes:
//  * mix:0 — pure one-shot churn: each iteration schedules one timer
//    (uniform horizon) and dispatches one. Isolates the raw queue cost.
//  * mix:1 — the F6a server's event lifecycle around one result: schedule
//    a completion (fires) and a deadline timer (cancelled later, since
//    reports overwhelmingly beat their ~12-day deadlines), dispatch one
//    event, cancel the deadline armed ~pending/2 iterations ago. Cancels
//    are lazy: a cancelled deadline is dropped when it reaches the front.
// Horizons are up to 1e6 s (277 hours), deadlines 2e6-3e6 s, so timers
// pass through the hour buckets and the far heap. items == iterations.
void BM_EventQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool app_mix = state.range(1) != 0;
  sim::Simulation sim;
  BenchTimers timers(sim);
  util::Rng rng(7);
  if (!app_mix) {
    for (std::size_t i = 0; i < n; ++i)
      sim.schedule_at(rng.uniform(0.0, 1e6), 0);
    for (auto _ : state) {
      sim.schedule_at(sim.now() + rng.uniform(1.0, 1e6), 0);
      sim.step();
    }
  } else {
    std::vector<sim::Key>& deadlines = timers.live;
    deadlines.assign(n, sim::kNoTimer);
    const auto deadline_tag = [](std::size_t i) {
      return static_cast<std::uint32_t>(i + 1);
    };
    for (std::size_t i = 0; i < n / 2; ++i)
      sim.schedule_at(rng.uniform(0.0, 1e6), 0);
    for (std::size_t i = 0; i < n / 2; ++i)
      deadlines[i] =
          sim.schedule_at(2e6 + rng.uniform(0.0, 1e6), deadline_tag(i));
    std::size_t di = n / 2;
    for (auto _ : state) {
      sim.schedule_at(sim.now() + rng.uniform(1.0, 1e6), 0);
      deadlines[di % n] = sim.schedule_at(
          sim.now() + 2e6 + rng.uniform(0.0, 1e6), deadline_tag(di % n));
      sim.step();
      sim.cancel(deadlines[(di + n / 2) % n]);
      ++di;
    }
  }
  benchmark::DoNotOptimize(timers.fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue)
    ->ArgNames({"pending", "mix"})
    ->Args({10'000, 0})
    ->Args({100'000, 0})
    ->Args({1'000'000, 0})
    ->Args({10'000, 1})
    ->Args({100'000, 1})
    ->Args({1'000'000, 1});

// Deadline-heavy workload: per round, schedule `n` timers and cancel 90 %
// of them before they can fire (the transitioner retires most deadlines
// early), then drain the rest; the drain drops each cancelled timer as it
// reaches the front. items == timers scheduled.
void BM_EventCancel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  BenchTimers timers(sim);
  util::Rng rng(11);
  timers.live.assign(n, sim::kNoTimer);
  for (auto _ : state) {
    const double base = sim.now();
    for (std::size_t i = 0; i < n; ++i)
      timers.live[i] = sim.schedule_at(base + rng.uniform(1.0, 1e4),
                                       static_cast<std::uint32_t>(i + 1));
    for (std::size_t i = 0; i < n; ++i)
      if (i % 10 != 0) sim.cancel(timers.live[i]);
    sim.run_until();
  }
  benchmark::DoNotOptimize(timers.fired);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventCancel)->ArgName("timers")->Arg(10'000)->Arg(100'000);

// One simulated week of the Fig. 6(a) campaign scenario end to end
// (workload build + fleet + DES) at the benches' standard scale: the
// macro number the kernel work is in service of. items == results the
// server received in that week.
void BM_CampaignWeek(benchmark::State& state) {
  std::uint64_t received = 0;
  bench::mem::reset_peak();
  const auto heap_before = bench::mem::heap_stats();
  for (auto _ : state) {
    core::CampaignConfig config;
    config.scale = 0.04;  // the benches' standard 1/25 scale
    config.max_weeks = 1.0;
    const core::CampaignReport r = core::run_campaign(config);
    received += r.counters.results_received;
    benchmark::DoNotOptimize(r.counters.results_received);
  }
  const auto heap_after = bench::mem::heap_stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["heap_peak_mb"] =
      static_cast<double>(heap_after.peak_live_bytes) / (1024.0 * 1024.0);
  state.counters["allocs_per_iter"] =
      static_cast<double>(heap_after.allocations - heap_before.allocations) /
      static_cast<double>(state.iterations());
  state.counters["rss_peak_mb"] =
      static_cast<double>(bench::mem::os_peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_CampaignWeek);

// Same campaign week with the full telemetry stack attached: a Tracer at
// default sampling plus the weekly-progress callback. The acceptance bar is
// telemetry-on <= 1.05x telemetry-off; the `trace_events` counter confirms
// the tracer actually recorded (i.e. this is not a no-op run).
void BM_CampaignWeekTelemetry(benchmark::State& state) {
  std::uint64_t received = 0;
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    core::CampaignConfig config;
    config.scale = 0.04;
    config.max_weeks = 1.0;
    obs::Tracer tracer;  // default capacity + sampling rates
    core::CampaignInstruments instruments;
    instruments.tracer = &tracer;
    instruments.on_week = [](const core::WeeklyProgress& progress) {
      benchmark::DoNotOptimize(progress.results_received);
    };
    const core::CampaignReport r = core::run_campaign(config, instruments);
    received += r.counters.results_received;
    recorded += tracer.recorded();
    benchmark::DoNotOptimize(r.counters.results_received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["trace_events"] =
      static_cast<double>(recorded) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_CampaignWeekTelemetry);

// The adaptive reputation ledger's bookkeeping cost, isolated. Both rows
// run the same campaign week with replication fully off — policy:0 is the
// fixed policy at quorum2_until 0 / spot_check_fraction 0 (bernoulli(0)
// short-circuits, so no server-RNG draw), policy:1 is the adaptive policy
// at trust_threshold 0 / spot_check_every 0 (every device trusted on first
// contact, never spot-checked). The issue schedule and event stream are
// therefore identical; the policy:1 / policy:0 real_time ratio is pure
// ledger overhead (per-device score slots, decay evaluation, result-event
// dispatch). tools/bench_gate.py gates the same-run ratio at 1.05x.
void BM_CampaignAdaptivePolicy(benchmark::State& state) {
  const bool adaptive = state.range(0) != 0;
  std::uint64_t received = 0;
  std::uint64_t decisions = 0;
  for (auto _ : state) {
    core::CampaignConfig config;
    config.scale = 0.04;
    config.max_weeks = 1.0;
    if (adaptive) {
      config.server.policy = server::PolicyKind::kAdaptiveTrust;
      config.server.adaptive_trust.trust_threshold = 0.0;
      config.server.adaptive_trust.spot_check_every = 0;
    } else {
      config.server.validation.quorum2_until = 0.0;
      config.server.validation.spot_check_fraction = 0.0;
    }
    const core::CampaignReport r = core::run_campaign(config);
    received += r.counters.results_received;
    decisions += r.validation.policy.counters.decisions;
    benchmark::DoNotOptimize(r.counters.results_received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["decisions"] =
      static_cast<double>(decisions) / static_cast<double>(state.iterations());
}
// At ~40 ms per campaign week the default 0.5 s window is ~12 iterations —
// too few for a same-run ratio gated at 1.05x on shared runners. Three
// 1-second repetitions per arm, reported as aggregates including a min
// statistic: scheduler noise and box drift only ever ADD time, so the
// per-arm minimum is the robust estimator the gate reads for the ratio.
BENCHMARK(BM_CampaignAdaptivePolicy)
    ->ArgName("policy")
    ->Arg(0)
    ->Arg(1)
    ->MinTime(1.0)
    ->Repetitions(3)
    ->ReportAggregatesOnly()
    ->ComputeStatistics("min", [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    });

// Full 26-week campaigns across fleet scales (arg = scale in permille).
// One iteration each: the point is how wall clock and heap peak grow with
// fleet size, not statistical timing precision. The 250-permille point is
// the quarter-scale acceptance run: ~73k devices end to end.
void BM_CampaignScaleSweep(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 1000.0;
  std::uint64_t received = 0;
  std::uint64_t events = 0;
  double completion_weeks = 0.0;
  std::uint64_t devices = 0;
  bench::mem::reset_peak();
  const auto heap_before = bench::mem::heap_stats();
  for (auto _ : state) {
    core::CampaignConfig config;
    config.scale = scale;
    const core::CampaignReport r = core::run_campaign(config);
    received += r.counters.results_received;
    events += r.events_processed;
    completion_weeks = r.completion_weeks;
    devices = r.devices_simulated;
    benchmark::DoNotOptimize(r.counters.results_received);
  }
  const auto heap_after = bench::mem::heap_stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["devices"] = static_cast<double>(devices);
  state.counters["completion_weeks"] = completion_weeks;
  state.counters["heap_peak_mb"] =
      static_cast<double>(heap_after.peak_live_bytes) / (1024.0 * 1024.0);
  state.counters["allocs_per_iter"] =
      static_cast<double>(heap_after.allocations - heap_before.allocations) /
      static_cast<double>(state.iterations());
  // Throughput in simulator terms, for cross-scale comparison: DES events
  // retired per wall second, and simulated device-weeks per wall second
  // (the "how much campaign does a second of CPU buy" figure the
  // extrapolation tables in EXPERIMENTS.md are built from).
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["device_weeks_per_sec"] = benchmark::Counter(
      static_cast<double>(devices) * completion_weeks,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignScaleSweep)
    ->ArgName("permille")
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(100)
    ->Arg(250)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The sharded engine at the quarter-scale acceptance point: the same
// ~73k-device 26-week campaign run sequentially (shards:1) and partitioned
// across 8 shards (shards:8). The shards:8 / shards:1 wall-clock ratio is
// the PR's acceptance metric (>= 3x on 8 hardware threads); on fewer cores
// the ratio degrades gracefully towards 1x, so the per-run
// device_weeks_per_sec counter is the portable number. Reports are
// bit-identical across the two rows (core_shard_determinism_test enforces
// this at test scale), so the comparison is pure engine overhead.
void BM_CampaignSharded(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  std::uint64_t received = 0;
  std::uint64_t events = 0;
  double completion_weeks = 0.0;
  std::uint64_t devices = 0;
  for (auto _ : state) {
    core::CampaignConfig config;
    config.scale = 0.25;  // the quarter-scale acceptance run
    config.shards = shards;
    const core::CampaignReport r = core::run_campaign(config);
    received += r.counters.results_received;
    events += r.events_processed;
    completion_weeks = r.completion_weeks;
    devices = r.devices_simulated;
    benchmark::DoNotOptimize(r.counters.results_received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
  state.counters["devices"] = static_cast<double>(devices);
  state.counters["completion_weeks"] = completion_weeks;
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["device_weeks_per_sec"] = benchmark::Counter(
      static_cast<double>(devices) * completion_weeks,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CampaignSharded)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_SchedulerRpc(benchmark::State& state) {
  std::vector<packaging::Workunit> catalog(100'000);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    catalog[i].id = i;
    catalog[i].receptor = static_cast<std::uint32_t>(i % 168);
    catalog[i].isep_begin = 0;
    catalog[i].isep_end = 10;
    catalog[i].reference_seconds = 3600.0;
  }
  server::ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  server::ProjectServer server(std::move(catalog), cfg);
  double now = 0.0;
  std::uint64_t served = 0;
  for (auto _ : state) {
    auto a = server.request_work(1, now);
    if (!a.has_value()) {
      state.SkipWithError("catalogue exhausted; raise the catalogue size");
      break;
    }
    server::ResultReport report;
    report.reported_runtime = 100.0;
    report.reference_seconds = 3600.0;
    server.report_result(a->result_id, now + 1.0, report);
    now += 2.0;
    ++served;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
}
BENCHMARK(BM_SchedulerRpc)->Iterations(50'000);

// The scheduler RPC in the end game, the regime a campaign's tail runs in:
// the whole catalogue issued, all but kEndgameSurvivors workunits done,
// and every survivor already holding its maximum of end-game copies. Each
// timed pair returns one survivor's first copy, which completes it, then
// asks for work: the request finds the end-game queue drained after a
// change, rebuilds it and is denied, since every other survivor is
// saturated. The arms differ only in catalogue size, so a rebuild that
// scans the whole catalogue instead of the survivors shows as a per-pair
// cost that grows with it (tools/bench_gate.py holds the two arms within
// 2x of each other, on the min of five repetitions: a 1M catalogue puts
// the survivors' records a page apart, so single runs of that arm are
// noisier). BM_SchedulerRpc never leaves the fresh catalogue and cannot
// see this.
constexpr std::uint32_t kEndgameSurvivors = 2048;

void BM_SchedulerRpcEndgame(benchmark::State& state) {
  const auto workunits = static_cast<std::uint32_t>(state.range(0));
  std::vector<packaging::Workunit> catalog(workunits);
  for (std::uint32_t i = 0; i < workunits; ++i) {
    catalog[i].id = i;
    catalog[i].receptor = static_cast<std::uint16_t>(i % 168);
    catalog[i].isep_begin = 0;
    catalog[i].isep_end = 10;
    catalog[i].reference_seconds = 3600.0;
  }
  server::ServerConfig cfg;
  cfg.validation.quorum2_until = 0.0;
  cfg.validation.spot_check_fraction = 0.0;
  server::ProjectServer server(std::move(catalog), cfg);
  server::ResultReport report;
  report.reported_runtime = 100.0;
  report.reference_seconds = 3600.0;

  // One copy per workunit: result id i is workunit i. The survivors are
  // spread evenly over the catalogue, as a campaign's stragglers are.
  const std::uint32_t stride = workunits / kEndgameSurvivors;
  for (std::uint32_t i = 0; i < workunits; ++i) server.request_work(i, 0.0);
  std::vector<std::uint64_t> first_copies;
  for (std::uint32_t i = 0; i < workunits; ++i) {
    if (i % stride == 0 && first_copies.size() < kEndgameSurvivors)
      first_copies.push_back(i);
    else
      server.report_result(i, 1.0, report);
  }
  // Saturate the survivors with end-game copies.
  while (server.request_work(0, 2.0).has_value()) {
  }

  double now = 3.0;
  std::size_t next = 0;
  for (auto _ : state) {
    server.report_result(first_copies[next++], now, report);
    benchmark::DoNotOptimize(server.request_work(0, now));
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerRpcEndgame)
    ->ArgName("workunits")
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Iterations(kEndgameSurvivors)
    ->Repetitions(5)
    ->ReportAggregatesOnly()
    ->ComputeStatistics("min", [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end());
    });

void BM_PackagingStream(benchmark::State& state) {
  proteins::BenchmarkSpec spec;
  spec.count = 32;
  spec.target_total_nsep = 0;
  spec.outlier_nsep_target = 0;
  const auto bench_set = proteins::generate_benchmark(spec);
  const auto model = timing::CostModel::calibrated(bench_set, 671.0);
  const auto mct = timing::MctMatrix::from_model(bench_set, model);
  packaging::PackagingConfig cfg;
  cfg.target_hours = 4.0;
  for (auto _ : state) {
    std::uint64_t count = packaging::for_each_workunit(
        bench_set, mct, cfg, [](const packaging::Workunit&) {});
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PackagingStream);

void BM_MctMatrixBuild(benchmark::State& state) {
  const auto bench_set = proteins::generate_benchmark({});
  const auto model = timing::CostModel::calibrated(bench_set, 671.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timing::MctMatrix::from_model(bench_set, model));
  }
}
BENCHMARK(BM_MctMatrixBuild);

// ---------------------------------------------------------------------------
// Grid service over real sockets: the `hcmdgrid serve` path end to end on
// localhost. Both rows drive a pipelined wire client (256 devices on one
// connection) against a 2-worker server, the deployment shape the serve
// smoke test uses. BM_ServeThroughput reports wall time per RPC burst
// (items/s is the req/s headline the gate gates); BM_ServeIssueP99 reports
// the p99 round-trip of each burst via manual time, so the gated number is
// the latency SLO itself rather than the mean.
// ---------------------------------------------------------------------------
server::ServiceConfig bench_serve_config() {
  server::ServiceConfig config;
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  return config;
}

/// Arg 0: span instrumentation off (control) or on with the snapshotter at
/// a tight 0.25 s period — the server-side observability overhead the gate
/// holds to 1.05x (tools/bench_gate.py OVERHEADS). Neither arm requests
/// span echoes: the 32-byte reply tail is opt-in and its wire cost lands
/// on the client that asked (loadgen exercises that path), while this gate
/// prices what every client pays when the server instruments itself.
void BM_ServeThroughput(benchmark::State& state) {
  constexpr std::uint32_t kDevices = 256;
  constexpr std::uint32_t kBurst = 1024;
  const bool spans = state.range(0) != 0;
  server::ServiceConfig config = bench_serve_config();
  config.spans = spans;
  server::NetOptions net;
  net.snapshot_period = spans ? 0.25 : 0.0;
  server::GridServer grid(server::synthetic_catalog(400'000, 4.0),
                          std::move(config), net);
  grid.start();
  client::WireClient wire("127.0.0.1", grid.port());
  std::uint64_t seq = 1;
  std::uint64_t served = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      server::proto::RequestWork m;
      m.device = i % kDevices;
      m.seq = seq++;
      wire.queue(m);
    }
    wire.flush();
    for (std::uint32_t i = 0; i < kBurst; ++i) {
      benchmark::DoNotOptimize(wire.recv_reply());
    }
    served += kBurst;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(served));
  grid.stop();
}
// Iterations are pinned so both arms (and every repetition) push the exact
// same request sequence at the same catalogue: free-running time targets
// let the arms drain different fractions of the 400k assignments, and the
// assignment/no-work mix shift swamps the instrumentation delta the
// spans:1/spans:0 ratio is meant to isolate.
BENCHMARK(BM_ServeThroughput)
    ->ArgName("spans")
    ->Arg(0)
    ->Arg(1)
    ->Iterations(150)
    ->Unit(benchmark::kMillisecond);

void BM_ServeIssueP99(benchmark::State& state) {
  constexpr std::uint32_t kDevices = 256;
  constexpr std::uint32_t kProbe = 512;
  server::GridServer grid(server::synthetic_catalog(400'000, 4.0),
                          bench_serve_config(), server::NetOptions{});
  grid.start();
  client::WireClient wire("127.0.0.1", grid.port());
  std::uint64_t seq = 1;
  std::vector<double> rtts;
  rtts.reserve(kProbe);
  for (auto _ : state) {
    rtts.clear();
    const auto burst_start = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      server::proto::RequestWork m;
      m.device = i % kDevices;
      m.seq = seq++;
      wire.queue(m);
    }
    wire.flush();
    for (std::uint32_t i = 0; i < kProbe; ++i) {
      benchmark::DoNotOptimize(wire.recv_reply());
      rtts.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - burst_start)
                         .count());
    }
    // Manual time = the burst's p99 round trip: the gated figure is the
    // latency SLO, not the mean.
    std::sort(rtts.begin(), rtts.end());
    state.SetIterationTime(rtts[(kProbe * 99) / 100]);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kProbe));
  grid.stop();
}
BENCHMARK(BM_ServeIssueP99)->UseManualTime()->Unit(benchmark::kMillisecond);

/// The client farm (client::run_loadgen) on one connection for a 1 s
/// window at 1,024 and at 32,768 devices. Manual time is the farm's own
/// wall time, so items_per_second is loadgen's req/s; the same-run law in
/// tools/bench_gate.py holds the 32k arm's median to at least 0.8x the 1k
/// arm's, so the farm's work per reply cannot grow with its device count.
/// Each arm is three 1 s windows, each against a fresh server: one window
/// read the ratio from x0.75 to x1.34 on unchanged code. The catalogue is
/// too large for a window to drain.
void BM_LoadgenDevices(benchmark::State& state) {
  server::GridServer grid(server::synthetic_catalog(2'400'000, 4.0),
                          bench_serve_config(), server::NetOptions{});
  grid.start();
  client::LoadgenOptions load;
  load.port = grid.port();
  load.devices = static_cast<std::uint32_t>(state.range(0));
  load.connections = 1;
  load.duration_seconds = 1.0;
  std::uint64_t replies = 0;
  for (auto _ : state) {
    const client::LoadgenReport report = client::run_loadgen(load);
    replies += report.replies;
    state.SetIterationTime(report.wall_seconds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replies));
  grid.stop();
}
BENCHMARK(BM_LoadgenDevices)
    ->ArgName("devices")
    ->Arg(1024)
    ->Arg(32768)
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly()
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN, plus the kernel variant every docking row ran on (the
// engines above take the default, the fastest this CPU runs) in the
// report's context.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "docking_kernel_variant",
      hcmd::docking::kernel_variant_name(
          hcmd::docking::fastest_kernel_variant()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
