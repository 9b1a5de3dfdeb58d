// perfbench harness: runs one repetition of one benchmark workload through
// the library's public entry points and prints one JSON document of raw
// measurements on stdout. perfbench/run.py repeats it, checks the outputs
// and derives every metric from these documents.
//
//   perfbench_harness <workload> <seed> <trace 0|1>
//
// Workloads (perfbench/README.md says why each was chosen):
//   campaign-full  core::run_campaign: Phase I at scale 0.1, one shard,
//                  faults off, default validation policy, no tracer
//   serve-wire     server::GridServer configured as `hcmdgrid serve` by
//                  default (spans on, quorum off) with 1 network worker,
//                  driven by client::run_loadgen over 1 connection
//   dock-workunit  docking::MaxDoProgram::run over one workunit (one
//                  starting position x all 21 rotation couples) on each of
//                  3 generated couples, default MaxDoParams, threads = 1
//
// The seed is mixed into the generated inputs (campaign seed, server and
// device-farm seeds, protein geometry); the program sees only those. Every
// repetition of one seed repeats the same inputs, so their digests must
// agree. dock-workunit docks several couples because a position's cost
// varies by about a fifth with the couple's geometry.
//
// Every document carries the wall-clock boundaries of the calls the harness
// makes into the library (seconds since the harness started); run.py turns
// them into spans. With trace 1 the harness also records the finer
// boundaries of a traced run: the campaign.des_week zone at every week, and
// for serve-wire the per-thread CPU counters of /proc/self/task at the
// edges of the load window.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <initializer_list>
#include <stdexcept>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/loadgen.hpp"
#include "core/campaign.hpp"
#include "docking/maxdo.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "proteins/generator.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace hcmd;
using Clock = std::chrono::steady_clock;

// --- workload sizes ---------------------------------------------------------

/// campaign-full: `hcmdgrid campaign 10 4` (scale 1/10, 4 h workunits).
constexpr double kCampaignScale = 0.1;
constexpr double kCampaignTargetHours = 4.0;

/// serve-wire: the load window of one repetition. The server keeps state per
/// issued workunit, so peak RSS grows with the RPCs a window serves; a short
/// window keeps that share of the RSS small.
constexpr double kLoadWindowSeconds = 1.0;
/// On a 4-vCPU x86 host, one connection over 1,024 devices held 237-263k
/// RPC/s with back-to-back pairs within 0.93-1.11x; more devices slow the
/// farm's per-loop device walk, and two connections spread up to 1.21x.
constexpr std::uint32_t kServeDevices = 1024;
/// A workunit costs two RPCs (assignment + report), so 2.4M workunits last
/// the window up to 4.8M RPC/s, about 20x the rate measured on that host,
/// before the catalogue could drain into the end-game.
constexpr std::uint32_t kServeWorkunits = 2'400'000;
constexpr double kServeTargetHours = 4.0;

/// dock-workunit: median-sized couples of the 168-protein set (250
/// pseudo-atoms each), one workunit of one starting position on each.
constexpr std::uint32_t kDockReceptorAtoms = 250;
constexpr std::uint32_t kDockLigandAtoms = 250;
constexpr std::uint32_t kDockCouples = 3;
constexpr std::uint32_t kDockPositions = 1;

/// Host probe: a dependent multiply-add chain no compiler can shorten.
constexpr std::uint64_t kProbeIterations = 20'000'000;

// --- helpers ----------------------------------------------------------------

const Clock::time_point g_origin = Clock::now();

/// Seconds since the harness started; every span and boundary uses it.
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

/// Derives the seed of one generated input from the workload seed.
std::uint64_t input_seed(std::uint64_t seed, std::string_view input) {
  return util::Rng(seed).fork(input).next_u64();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double probe_ms() {
  volatile std::uint64_t iterations = kProbeIterations;
  const double t0 = now_s();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint64_t i = 0, n = iterations; i < n; ++i)
    x = x * 6364136223846793005ULL + (x >> 29) + 1442695040888963407ULL;
  volatile std::uint64_t sink = x;
  (void)sink;
  return 1e3 * (now_s() - t0);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Profiler zone totals in milliseconds, by zone name.
std::vector<std::pair<std::string, double>> zone_totals_ms() {
  std::vector<std::pair<std::string, double>> out;
  for (const obs::Profiler::ZoneStat& z : obs::Profiler::instance().table())
    out.emplace_back(z.name, static_cast<double>(z.total_ns) / 1e6);
  return out;
}

double zone_ms(const std::vector<std::pair<std::string, double>>& zones,
               std::string_view name) {
  for (const auto& [n, ms] : zones)
    if (n == name) return ms;
  return 0.0;
}

/// The raw first line of a /proc stat file ("" when unreadable).
std::string read_stat_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::vector<long> task_ids() {
  std::vector<long> ids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir))
      if (e->d_name[0] != '.') ids.push_back(std::atol(e->d_name));
    ::closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// One labelled thread of the process at a window edge.
struct TaskStat {
  long tid = 0;
  std::string group;
  std::string stat;
};

/// /proc/self/stat (all threads of the process, including ones that have
/// exited) plus /proc/self/task/<tid>/stat of each labelled live thread.
struct ProcSample {
  std::string self;
  std::vector<TaskStat> tasks;
};

ProcSample sample_proc(const std::vector<std::pair<long, std::string>>& groups) {
  ProcSample s;
  s.self = read_stat_line("/proc/self/stat");
  for (const auto& [tid, group] : groups)
    s.tasks.push_back({tid, group,
                       read_stat_line("/proc/self/task/" +
                                      std::to_string(tid) + "/stat")});
  return s;
}

void write_proc_sample(obs::JsonWriter& w, std::string_view key,
                       const ProcSample& s) {
  w.key(key).begin_object();
  w.kv("self", s.self);
  w.key("tasks").begin_array();
  for (const TaskStat& t : s.tasks) {
    w.begin_object();
    w.kv("tid", static_cast<std::int64_t>(t.tid));
    w.kv("group", t.group);
    w.kv("stat", t.stat);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_bounds(obs::JsonWriter& w,
                  std::initializer_list<std::pair<const char*, double>> bounds) {
  w.key("bounds").begin_object();
  for (const auto& [name, t] : bounds) w.kv(name, t);
  w.end_object();
}

// --- campaign-full ----------------------------------------------------------

void run_campaign_full(std::uint64_t seed, bool trace, obs::JsonWriter& w) {
  core::CampaignConfig config;
  config.scale = kCampaignScale;
  config.packaging.target_hours = kCampaignTargetHours;
  config.shards = 1;
  config.seed = input_seed(seed, "campaign");

  obs::Profiler::instance().reset();

  struct WeekMark {
    double t = 0.0;
    double des_ms = -1.0;  ///< campaign.des_week zone total (traced runs)
    core::WeeklyProgress progress;
  };
  std::vector<WeekMark> marks;
  marks.reserve(64);
  double setup_end = -1.0;
  core::CampaignInstruments instruments;
  instruments.on_week = [&](const core::WeeklyProgress& p) {
    const double t = now_s();
    WeekMark m{t, -1.0, p};
    // The first simulated week starts where its des_week zone began: the
    // zone total at the first callback is exactly that week's duration.
    if (setup_end < 0.0 || trace) {
      m.des_ms = zone_ms(zone_totals_ms(), "campaign.des_week");
      if (setup_end < 0.0) setup_end = t - m.des_ms / 1e3;
    }
    marks.push_back(m);
  };

  const double t_begin = now_s();
  const core::CampaignReport report = core::run_campaign(config, instruments);
  const double t_end = now_s();
  if (marks.empty()) throw std::runtime_error("campaign ran no week");

  std::uint64_t work_requests = 0;
  std::uint64_t work_denied = 0;
  for (const core::TelemetryCounter& c : report.telemetry_counters) {
    if (c.name == client::metric::kWorkRequests) work_requests = c.value;
    if (c.name == client::metric::kWorkDenied) work_denied = c.value;
  }

  const server::ServerCounters& k = report.counters;
  // Report digest: completion time, every server counter and the event
  // count. A speed-only change to the program must leave it unchanged.
  char digest_src[512];
  std::snprintf(
      digest_src, sizeof digest_src,
      "%.17g|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|%llu|"
      "%.17g|%.17g|%llu|%zu",
      report.completion_weeks, static_cast<unsigned long long>(k.results_sent),
      static_cast<unsigned long long>(k.results_received),
      static_cast<unsigned long long>(k.results_valid),
      static_cast<unsigned long long>(k.results_quorum_extra),
      static_cast<unsigned long long>(k.results_invalid),
      static_cast<unsigned long long>(k.results_redundant),
      static_cast<unsigned long long>(k.results_timed_out),
      static_cast<unsigned long long>(k.results_pending),
      static_cast<unsigned long long>(k.quorum_mismatches),
      static_cast<unsigned long long>(k.late_mismatches),
      static_cast<unsigned long long>(k.corrupt_assimilated),
      static_cast<unsigned long long>(k.workunits_completed),
      k.useful_reference_seconds, k.reported_runtime_seconds,
      static_cast<unsigned long long>(report.events_processed),
      report.devices_simulated);

  write_bounds(w, {{"begin", t_begin}, {"setup_end", setup_end}, {"end", t_end}});
  w.kv("digest", hex64(util::hash64(digest_src)));
  w.key("weeks").begin_array();
  for (const WeekMark& m : marks) {
    w.begin_object();
    w.kv("t", m.t);
    w.kv("week", m.progress.week);
    w.kv("results_received", m.progress.results_received);
    w.kv("workunits_completed", m.progress.workunits_completed);
    w.kv("workunits_total", m.progress.workunits_total);
    w.kv("pending_events", static_cast<std::uint64_t>(m.progress.pending_events));
    if (m.des_ms >= 0.0) w.kv("des_ms", m.des_ms);
    w.end_object();
  }
  w.end_array();
  w.key("counts").begin_object();
  w.kv("completed", report.completed);
  w.kv("completion_weeks", report.completion_weeks);
  w.kv("workunits_total", marks.back().progress.workunits_total);
  w.kv("workunits_completed", k.workunits_completed);
  w.kv("results_valid", k.results_valid);
  w.kv("results_received", k.results_received);
  w.kv("work_requests", work_requests);
  w.kv("work_denied", work_denied);
  w.kv("events", report.events_processed);
  w.kv("devices", static_cast<std::uint64_t>(report.devices_simulated));
  w.end_object();
  w.key("zones_ms").begin_object();
  for (const auto& [name, ms] : zone_totals_ms()) w.kv(name, ms);
  w.end_object();
}

// --- serve-wire -------------------------------------------------------------

void run_serve_wire(std::uint64_t seed, bool trace, obs::JsonWriter& w) {
  server::ServiceConfig config;
  // `hcmdgrid serve` defaults: range-check validation only, spans on.
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  config.seed = input_seed(seed, "service");
  server::NetOptions net;
  net.workers = 1;

  const double t0 = now_s();
  std::vector<packaging::Workunit> catalog =
      server::synthetic_catalog(kServeWorkunits, kServeTargetHours);
  const double t1 = now_s();
  const std::vector<long> before = task_ids();
  server::GridServer grid(std::move(catalog), std::move(config), net);
  grid.start();
  const double t2 = now_s();

  // Threads start() created, in creation order: the network workers, the
  // service thread, then the metrics snapshotter.
  std::vector<std::pair<long, std::string>> groups;
  std::size_t created = 0;
  for (long tid : task_ids()) {
    if (tid == static_cast<long>(::getpid())) {
      groups.emplace_back(tid, "main");
    } else if (!std::binary_search(before.begin(), before.end(), tid)) {
      groups.emplace_back(tid, created < net.workers    ? "net"
                               : created == net.workers ? "service"
                                                        : "snapshot");
      ++created;
    }
  }

  client::LoadgenOptions load;
  load.port = grid.port();
  load.devices = kServeDevices;
  load.connections = 1;
  load.duration_seconds = kLoadWindowSeconds;
  load.seed = input_seed(seed, "farm");

  ProcSample proc_start;
  if (trace) proc_start = sample_proc(groups);
  const double t3 = now_s();
  const client::LoadgenReport report = client::run_loadgen(load);
  const double t4 = now_s();
  ProcSample proc_end;
  if (trace) proc_end = sample_proc(groups);

  const server::GridServer::Stats stats = grid.stats();
  grid.stop();
  const double t5 = now_s();
  const server::ServerCounters& k = grid.service().project().counters();

  write_bounds(w, {{"begin", t0},
                   {"catalog_end", t1},
                   {"start_end", t2},
                   {"load_begin", t3},
                   {"load_end", t4},
                   {"stop_end", t5}});
  const server::proto::Status& st = report.server_status;
  w.kv("load_wall_s", report.wall_seconds);
  w.key("counts").begin_object();
  w.kv("devices", static_cast<std::uint64_t>(kServeDevices));
  w.kv("workunits_total", static_cast<std::uint64_t>(kServeWorkunits));
  w.kv("requests_sent", report.requests_sent);
  w.kv("replies", report.replies);
  w.kv("assignments", report.assignments);
  w.kv("no_work", report.no_work);
  w.kv("busy", report.busy);
  w.kv("acks", report.acks);
  w.kv("errors", report.errors);
  w.kv("protocol_errors", stats.protocol_errors);
  w.kv("server_rpc_requests", st.rpc_requests);
  w.kv("server_rpc_assignments", st.rpc_assignments);
  w.kv("server_rpc_no_work", st.rpc_no_work);
  w.kv("server_rpc_busy", st.rpc_busy);
  w.kv("server_rpc_reports", st.rpc_reports);
  w.kv("server_rpc_errors", st.rpc_errors);
  w.kv("server_results_sent", k.results_sent);
  w.kv("server_results_received", k.results_received);
  w.kv("server_workunits_completed", k.workunits_completed);
  w.end_object();
  w.key("latency_s").begin_object();
  w.kv("issue_p50", report.issue_latency.quantile(0.50));
  w.kv("issue_p99", report.issue_latency.quantile(0.99));
  w.kv("queue_wait_p50", report.span_queue_wait.quantile(0.50));
  w.kv("service_p50", report.span_service.quantile(0.50));
  w.kv("span_total_p99", report.span_total.quantile(0.99));
  w.kv("net_residual_p50", report.net_residual.quantile(0.50));
  w.end_object();
  if (trace) {
    w.key("proc").begin_object();
    w.kv("clk_tck", static_cast<std::int64_t>(::sysconf(_SC_CLK_TCK)));
    write_proc_sample(w, "start", proc_start);
    write_proc_sample(w, "end", proc_end);
    w.end_object();
  }
}

// --- dock-workunit ----------------------------------------------------------

void run_dock_workunit(std::uint64_t seed, obs::JsonWriter& w) {
  // Set-up of every couple first, then the runs, so that each phase is one
  // contiguous interval.
  const double t0 = now_s();
  // A program references its proteins; the reserved vector never moves them.
  std::vector<proteins::ReducedProtein> molecules;
  molecules.reserve(2 * kDockCouples);
  std::vector<std::unique_ptr<docking::MaxDoProgram>> programs;
  for (std::uint32_t i = 0; i < kDockCouples; ++i) {
    util::Rng couple(input_seed(seed, "couple" + std::to_string(i)));
    const proteins::ReducedProtein& receptor =
        molecules.emplace_back(proteins::generate_protein(
            1, kDockReceptorAtoms, 1.1, couple.next_u64()));
    const proteins::ReducedProtein& ligand =
        molecules.emplace_back(proteins::generate_protein(
            2, kDockLigandAtoms, 1.0, couple.next_u64()));
    programs.push_back(std::make_unique<docking::MaxDoProgram>(
        receptor, ligand, docking::MaxDoParams{}));
  }
  const double t1 = now_s();

  // One run per couple; with one starting position per workunit, each run
  // is one position.
  std::vector<double> run_edges{now_s()};
  std::vector<docking::RunStatus> status;
  std::vector<docking::MaxDoCheckpoint> checkpoints(kDockCouples);
  docking::MaxDoTask task;
  task.isep_end = kDockPositions;
  for (std::uint32_t i = 0; i < kDockCouples; ++i) {
    status.push_back(programs[i]->run(task, checkpoints[i]));
    run_edges.push_back(now_s());
  }

  // A position is whole when it holds one finite record per rotation
  // couple, each with an in-range index.
  std::uint64_t records = 0, bad_records = 0, whole_positions = 0;
  std::uint64_t completed = 0, resumed_at_end = 0;
  std::uint64_t evaluations = 0, inspected = 0, within = 0;
  std::ostringstream bytes;
  for (std::uint32_t i = 0; i < kDockCouples; ++i) {
    const docking::MaxDoCheckpoint& cp = checkpoints[i];
    std::vector<std::uint32_t> per_position(task.positions(), 0);
    for (const docking::DockingRecord& r : cp.records) {
      if (r.isep < task.isep_begin || r.isep >= task.isep_end ||
          r.irot >= proteins::kNumRotationCouples || !std::isfinite(r.etot())) {
        ++bad_records;
        continue;
      }
      ++per_position[r.isep - task.isep_begin];
    }
    for (std::uint32_t n : per_position)
      if (n == proteins::kNumRotationCouples) ++whole_positions;
    records += cp.records.size();
    completed += status[i] == docking::RunStatus::kCompleted;
    resumed_at_end += cp.next_isep == task.isep_end;
    cp.write(bytes);
    const docking::WorkCounter& work = programs[i]->work();
    evaluations += work.evaluations;
    inspected += work.inspected_pairs;
    within += work.within_cutoff_pairs;
  }

  write_bounds(w, {{"begin", t0},
                   {"setup_end", t1},
                   {"run_begin", run_edges.front()},
                   {"run_end", run_edges.back()}});
  w.kv("digest", hex64(util::hash64(bytes.str())));
  w.key("couple_edges").begin_array();
  for (double t : run_edges) w.value(t);
  w.end_array();
  w.key("counts").begin_object();
  w.kv("couples", static_cast<std::uint64_t>(kDockCouples));
  w.kv("completed", completed);
  w.kv("resumed_at_end", resumed_at_end);
  w.kv("positions", static_cast<std::uint64_t>(kDockCouples) * task.positions());
  w.kv("whole_positions", whole_positions);
  w.kv("records", records);
  w.kv("bad_records", bad_records);
  w.kv("rotations", static_cast<std::uint64_t>(proteins::kNumRotationCouples));
  w.kv("evaluations", evaluations);
  w.kv("inspected_pairs", inspected);
  w.kv("within_cutoff_pairs", within);
  w.end_object();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness <campaign-full|serve-wire|"
               "dock-workunit> <seed> <trace 0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) return usage();
  const std::string workload = argv[1];
  const std::uint64_t seed = std::strtoull(argv[2], nullptr, 10);
  const bool trace = std::string_view(argv[3]) == "1";
  if (workload != "campaign-full" && workload != "serve-wire" &&
      workload != "dock-workunit")
    return usage();

  try {
    obs::JsonWriter w;
    w.begin_object();
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("trace", trace);
    w.kv("probe_ms", probe_ms());
    if (workload == "campaign-full")
      run_campaign_full(seed, trace, w);
    else if (workload == "serve-wire")
      run_serve_wire(seed, trace, w);
    else
      run_dock_workunit(seed, w);
    w.kv("peak_rss_mb", peak_rss_mb());
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
