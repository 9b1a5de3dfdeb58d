// hcmdgrid — command-line driver for the hcmd-grid library.
//
// Subcommands:
//   workload                      generate the 168-protein set, calibrate,
//                                 print Table-1 statistics and totals
//   package <hours>               package workunits at the given target
//   campaign [denom] [hours]      run Phase I at 1/denom scale
//   phase2 [grid_vftp] [denom]    run a Phase II scenario
//   project [proteins] [cut] [weeks] [share]
//                                 closed-form Phase II projection (Table 3)
//   dock [rec_atoms] [lig_atoms]  run the docking kernel on one couple and
//                                 name the kernel variant it ran
//   calibrate                     replay the Grid'5000 calibration campaign
//
// campaign/phase2 observation flags:
//   --report <file>       write the run-report JSON (paper series + telemetry)
//   --trace <file>        write a Chrome trace_event JSON (Perfetto-loadable)
//   --trace-jsonl <file>  write the trace as JSONL (grep/jq-friendly)
//   --progress            print a live weekly progress ticker
//   --faults <name|file>  inject a fault plan: a compiled-in preset name or
//                         a plan file (see examples/faults/)
//   --policy <name|file>  select the validation policy: a compiled-in preset
//                         name or a spec file (see examples/policies/)
//   --replicas <n>        run n independent seeds (Monte-Carlo replication)
//                         and report mean +- ci95 per headline metric
//   --quorum2-weeks <w>   override how long quorum-2 validation runs
//   --max-weeks <w>       override the simulation's hard stop
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/projection.hpp"
#include "client/loadgen.hpp"
#include "core/campaign.hpp"
#include "faults/plan.hpp"
#include "server/net.hpp"
#include "server/service.hpp"
#include "core/phase2.hpp"
#include "core/replication.hpp"
#include "core/run_report.hpp"
#include "obs/trace.hpp"
#include "dedicated/calibration.hpp"
#include "docking/maxdo.hpp"
#include "packaging/packager.hpp"
#include "results/storage.hpp"
#include "util/ascii_plot.hpp"
#include "util/duration.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace hcmd;

int cmd_workload() {
  const core::Workload w = core::build_workload(core::CampaignConfig{});
  const util::Summary s = w.mct->summary();
  std::printf("Benchmark: %zu proteins, sum Nsep = %s, %s candidate "
              "workunits\n",
              w.benchmark.proteins.size(),
              util::with_commas(w.benchmark.total_nsep()).c_str(),
              util::with_commas(w.benchmark.candidate_workunits()).c_str());
  std::printf("Mct: mean %.0f s, sigma %.0f, min %.1f, max %.0f, median "
              "%.0f over %s couples\n",
              s.mean, s.stddev, s.min, s.max, s.median,
              util::with_commas(s.count).c_str());
  std::printf("Formula (1) total: %s (y:d:h:m:s)\n",
              util::format_ydhms(
                  w.mct->total_reference_seconds(w.benchmark)).c_str());
  const results::StorageEstimate storage =
      results::estimate_storage(w.benchmark);
  std::printf("Expected results: %s files, %s raw (%s compressed)\n",
              util::with_commas(storage.files).c_str(),
              results::format_gb(storage.raw_bytes).c_str(),
              results::format_gb(storage.compressed_bytes).c_str());
  return 0;
}

int cmd_package(double hours) {
  if (hours <= 0.0) throw ConfigError("package: hours must be > 0");
  const core::Workload w = core::build_workload(core::CampaignConfig{});
  packaging::PackagingConfig cfg;
  cfg.target_hours = hours;
  const auto stats = packaging::compute_stats(w.benchmark, *w.mct, cfg, 32,
                                              1.5 * hours);
  std::printf("WantedWuExecTime = %.1f h -> %s workunits\n", hours,
              util::with_commas(stats.workunit_count).c_str());
  std::printf("mean %s, min %s, max %s, %s small (< h/2)\n",
              util::format_compact(stats.mean_reference_seconds).c_str(),
              util::format_compact(stats.min_reference_seconds).c_str(),
              util::format_compact(stats.max_reference_seconds).c_str(),
              util::with_commas(stats.small_workunits).c_str());
  std::printf("%s",
              util::histogram_chart(stats.duration_hours, 56,
                                    "workunits").c_str());
  return 0;
}

void print_campaign(const core::CampaignReport& r) {
  std::printf("completed: %s in %.1f weeks (scale 1/%d)\n",
              r.completed ? "yes" : "NO", r.completion_weeks,
              static_cast<int>(1.0 / r.scale + 0.5));
  std::printf("avg VFTP: WCG %.0f | HCMD whole %.0f | HCMD full power "
              "%.0f\n",
              r.avg_wcg_vftp_whole, r.avg_hcmd_vftp_whole,
              r.avg_hcmd_vftp_fullpower);
  std::printf("results: %.0f received, %.0f useful (%.1f%%), redundancy "
              "%.2f\n",
              r.results_received_rescaled(), r.results_useful_rescaled(),
              100.0 * r.useful_fraction, r.redundancy_factor);
  if (r.counters.useful_reference_seconds > 0.0) {
    std::printf("speed-down: gross %.2f, net %.2f\n",
                r.speeddown.gross_speeddown(), r.speeddown.net_speeddown());
  }
  std::printf("credit-based capacity estimate: %.0f reference processors\n",
              r.credit_reference_processors);
  std::printf("HCMD weekly VFTP:\n%s",
              util::line_chart(r.hcmd_vftp_weekly, 70, 10).c_str());
}

void print_usage() {
  std::fprintf(stderr,
               "usage: hcmdgrid <command> [args]\n"
               "  workload\n"
               "  package <hours>\n"
               "  campaign [scale_denom=50] [target_hours=4] [obs flags]\n"
               "  phase2 [grid_vftp=238920] [scale_denom=200] [obs flags]\n"
               "  project [proteins=4000] [cut=100] [weeks=40] [share=0.25]\n"
               "  dock [receptor_atoms=120] [ligand_atoms=80]\n"
               "  calibrate\n"
               "  serve [flags]         network grid server (serve --help)\n"
               "  loadgen [flags]       client-farm load generator "
               "(loadgen --help)\n"
               "observation flags (campaign/phase2):\n"
               "  --report <file>       run-report JSON (figures + telemetry)\n"
               "  --trace <file>        Chrome trace_event JSON\n"
               "  --trace-jsonl <file>  trace as JSON lines\n"
               "  --progress            weekly progress ticker\n"
               "  --faults <name|file>  fault-plan preset or file "
               "(presets: outage-weekend, saboteur-1pct, stragglers)\n"
               "  --policy <name|file>  validation-policy preset or spec file "
               "(presets: fixed, fixed-q2, adaptive)\n"
               "  --replicas <n>        Monte-Carlo replication over n seeds\n"
               "  --quorum2-weeks <w>   quorum-2 validation until week w\n"
               "  --max-weeks <w>       hard stop for the simulation\n"
               "  --shards <n>          fleet partitions (parallel engine; "
               "results are\n"
               "                        bit-identical at any shard count)\n");
}

int usage() {
  print_usage();
  return 2;
}

/// Strict numeric flag parsing: the whole token must parse and land in
/// range. Bad input prints the subcommand usage and throws ConfigError, so
/// `hcmdgrid serve --port banana` exits 2 like every other usage error.
long parse_long_flag(const char* flag, const char* v, long lo, long hi,
                     void (*usage_fn)()) {
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || x < lo || x > hi) {
    usage_fn();
    throw ConfigError(std::string(flag) + " " + v + ": expected an integer in [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return x;
}

/// The same for a finite real, at least `lo`.
double parse_double_flag(const char* flag, const char* v, void (*usage_fn)(),
                         double lo = std::numeric_limits<double>::lowest()) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(x) || x < lo) {
    usage_fn();
    std::string expected = "expected a number";
    if (lo > std::numeric_limits<double>::lowest()) {
      char bound[32];
      std::snprintf(bound, sizeof bound, " >= %g", lo);
      expected += bound;
    }
    throw ConfigError(std::string(flag) + " " + v + ": " + expected);
  }
  return x;
}

const char* flag_value(int argc, char** argv, int& i, void (*usage_fn)()) {
  if (i + 1 >= argc) {
    usage_fn();
    throw ConfigError(std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

/// Upper bound for count and denominator arguments.
constexpr long kMaxCount = std::numeric_limits<int>::max();

/// Positional argument `i` of the main usage's subcommands, parsed like a
/// flag, or `fallback` when it is absent.
long positional_long(const std::vector<const char*>& pos, std::size_t i,
                     const char* name, long fallback, long lo, long hi) {
  return i < pos.size() ? parse_long_flag(name, pos[i], lo, hi, print_usage)
                        : fallback;
}

double positional_double(const std::vector<const char*>& pos, std::size_t i,
                         const char* name, double fallback,
                         double lo = std::numeric_limits<double>::lowest()) {
  return i < pos.size() ? parse_double_flag(name, pos[i], print_usage, lo)
                        : fallback;
}

/// Throws ConfigError, after the main usage, when a subcommand got more
/// than the `max` positional arguments it takes.
void reject_surplus(const std::vector<const char*>& pos, std::size_t max) {
  if (pos.size() <= max) return;
  print_usage();
  throw ConfigError(std::string("unexpected argument ") + pos[max]);
}

/// Observation flags shared by `campaign` and `phase2`.
struct RunOptions {
  std::string report_path;
  std::string trace_path;        ///< Chrome trace_event JSON
  std::string trace_jsonl_path;  ///< one event per line
  std::string faults_spec;       ///< preset name or plan-file path
  std::string policy_spec;       ///< preset name or spec-file path
  double quorum2_weeks = -1.0;   ///< < 0: keep the scenario default
  double max_weeks = -1.0;       ///< < 0: keep the scenario default
  long shards = -1;              ///< < 0: keep the scenario default
  long replicas = 0;             ///< > 0: Monte-Carlo replication run
  bool progress = false;

  /// Applies the config-overriding flags (chaos runs extend quorum-2 over
  /// the whole campaign and raise the hard stop to cover the extra work).
  void apply_overrides(core::CampaignConfig& config) const {
    if (quorum2_weeks >= 0.0)
      config.server.validation.quorum2_until =
          quorum2_weeks * util::kSecondsPerWeek;
    if (max_weeks >= 0.0) config.max_weeks = max_weeks;
    // Out-of-domain values (0, or more shards than devices) are passed
    // through for config validation to reject with a clear message.
    if (shards >= 0) config.shards = static_cast<std::uint32_t>(shards);
  }
};

/// Resolves `--faults <spec>` — preset names win over file paths so the
/// documented presets always work regardless of the working directory.
/// Returns false (after printing the preset list) when the spec is neither.
bool resolve_faults(const std::string& spec, faults::FaultPlan& out) {
  if (faults::is_fault_preset(spec)) {
    out = faults::fault_preset(spec);
    return true;
  }
  try {
    out = faults::load_fault_plan(spec);
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcmdgrid: --faults %s: %s\n", spec.c_str(),
                 e.what());
    std::fprintf(stderr, "known presets:");
    for (const std::string& name : faults::fault_preset_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return false;
  }
}

/// Resolves `--policy <spec>` onto the server config — preset names win
/// over file paths, like `--faults`. The spec replaces the whole validation
/// configuration, so it runs before the single-knob overrides
/// (`--quorum2-weeks` still wins over a spec file).
bool resolve_policy(const std::string& spec, server::ServerConfig& out) {
  server::PolicySpec parsed;
  if (server::is_policy_preset(spec)) {
    parsed = server::policy_preset(spec);
  } else {
    try {
      parsed = server::load_policy_spec(spec);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hcmdgrid: --policy %s: %s\n", spec.c_str(),
                   e.what());
      std::fprintf(stderr, "known presets:");
      for (const std::string& name : server::policy_preset_names())
        std::fprintf(stderr, " %s", name.c_str());
      std::fprintf(stderr, "\n");
      return false;
    }
  }
  out.policy = parsed.kind;
  out.validation = parsed.validation;
  out.adaptive_trust = parsed.adaptive_trust;
  return true;
}

/// Splits `argv[start..)` into positional arguments and RunOptions flags.
/// Throws ConfigError, after the usage, on an unknown flag or a flag
/// without a valid value.
void parse_run_args(int argc, char** argv, int start, RunOptions& opts,
                    std::vector<const char*>& positional) {
  for (int i = start; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--progress") {
      opts.progress = true;
    } else if (a == "--report") {
      opts.report_path = flag_value(argc, argv, i, print_usage);
    } else if (a == "--trace") {
      opts.trace_path = flag_value(argc, argv, i, print_usage);
    } else if (a == "--trace-jsonl") {
      opts.trace_jsonl_path = flag_value(argc, argv, i, print_usage);
    } else if (a == "--faults") {
      opts.faults_spec = flag_value(argc, argv, i, print_usage);
    } else if (a == "--policy") {
      opts.policy_spec = flag_value(argc, argv, i, print_usage);
    } else if (a == "--quorum2-weeks") {
      opts.quorum2_weeks = parse_double_flag(
          "--quorum2-weeks", flag_value(argc, argv, i, print_usage),
          print_usage, 0.0);
    } else if (a == "--max-weeks") {
      opts.max_weeks = parse_double_flag(
          "--max-weeks", flag_value(argc, argv, i, print_usage), print_usage,
          0.0);
    } else if (a == "--shards") {
      opts.shards = parse_long_flag(
          "--shards", flag_value(argc, argv, i, print_usage), 0, kMaxCount,
          print_usage);
    } else if (a == "--replicas") {
      opts.replicas = parse_long_flag(
          "--replicas", flag_value(argc, argv, i, print_usage), 1, 1000000,
          print_usage);
    } else if (a.size() >= 2 && a.substr(0, 2) == "--") {
      // A typo like --reprot must not silently run a full campaign with
      // the report dropped.
      print_usage();
      throw ConfigError("unknown flag " + std::string(a));
    } else {
      positional.push_back(argv[i]);
    }
  }
}

int write_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "hcmdgrid: cannot open %s for writing\n",
                 path.c_str());
    return 1;
  }
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool ok = n == contents.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "hcmdgrid: short write to %s\n", path.c_str());
  return ok ? 0 : 1;
}

/// Monte-Carlo replication path: R independent seeds, a mean +- ci95 table,
/// and (with --report) the replication JSON the policy matrix consumes.
int run_replicated(const core::CampaignConfig& config,
                   const RunOptions& opts) {
  const core::ReplicationResult result = core::replicate_campaign(
      config, static_cast<std::size_t>(opts.replicas));
  std::printf("replicas: %zu (policy %s)\n", result.replicas,
              server::policy_kind_name(config.server.policy));
  for (const auto& m : result.metrics)
    std::printf("  %-24s %10.3f +- %.3f  [%.3f, %.3f]\n", m.name.c_str(),
                m.mean, m.ci95, m.min, m.max);
  std::uint64_t injected = 0;
  std::uint64_t assimilated = 0;
  for (const auto& r : result.reports) {
    injected += r.validation.corruption_injected;
    assimilated += r.validation.corruption_assimilated;
  }
  std::printf("corruption: %llu injected, %llu assimilated across all "
              "replicas\n",
              static_cast<unsigned long long>(injected),
              static_cast<unsigned long long>(assimilated));
  if (!opts.report_path.empty())
    return write_file(opts.report_path,
                      core::replication_report_json(config, result));
  return 0;
}

/// Runs a campaign with the requested observation attached and writes the
/// report/trace files.
int run_observed(const core::CampaignConfig& config, const RunOptions& opts) {
  if (opts.replicas > 0) return run_replicated(config, opts);
  std::optional<obs::Tracer> tracer;
  if (!opts.trace_path.empty() || !opts.trace_jsonl_path.empty() ||
      !opts.report_path.empty())
    tracer.emplace();

  core::CampaignInstruments instruments;
  if (tracer) instruments.tracer = &*tracer;
  if (opts.progress) {
    instruments.on_week = [](const core::WeeklyProgress& p) {
      std::printf("[week %5.1f] results %9llu | workunits %llu/%llu "
                  "(%5.1f%%) | devices %zu | pending events %zu\n",
                  p.week,
                  static_cast<unsigned long long>(p.results_received),
                  static_cast<unsigned long long>(p.workunits_completed),
                  static_cast<unsigned long long>(p.workunits_total),
                  p.workunits_total
                      ? 100.0 * static_cast<double>(p.workunits_completed) /
                            static_cast<double>(p.workunits_total)
                      : 0.0,
                  p.devices, p.pending_events);
      std::fflush(stdout);
    };
  }

  const core::CampaignReport report = core::run_campaign(config, instruments);
  print_campaign(report);

  int rc = 0;
  if (!opts.report_path.empty())
    rc |= write_file(opts.report_path,
                     core::run_report_json(config, report, instruments.tracer));
  if (!opts.trace_path.empty())
    rc |= write_file(opts.trace_path, tracer->chrome_trace_json());
  if (!opts.trace_jsonl_path.empty())
    rc |= write_file(opts.trace_jsonl_path, tracer->jsonl());
  return rc;
}

int cmd_campaign(int denom, double hours, const RunOptions& opts) {
  core::CampaignConfig config;
  config.scale = 1.0 / static_cast<double>(denom);
  config.packaging.target_hours = hours;
  if (!opts.faults_spec.empty() &&
      !resolve_faults(opts.faults_spec, config.faults))
    return 2;
  if (!opts.policy_spec.empty() &&
      !resolve_policy(opts.policy_spec, config.server))
    return 2;
  opts.apply_overrides(config);
  return run_observed(config, opts);
}

int cmd_phase2(double grid_vftp, int denom, const RunOptions& opts) {
  core::Phase2Scenario scenario;
  if (grid_vftp > 0.0) scenario.grid_vftp = grid_vftp;
  scenario.scale = 1.0 / static_cast<double>(denom);
  std::printf("Phase II scenario: grid %.0f VFTP, share %.0f%%, work "
              "%.2fx phase I\n",
              scenario.grid_vftp, 100.0 * scenario.grid_share,
              scenario.work_ratio);
  core::CampaignConfig config = core::make_phase2_config(scenario);
  if (!opts.faults_spec.empty() &&
      !resolve_faults(opts.faults_spec, config.faults))
    return 2;
  if (!opts.policy_spec.empty() &&
      !resolve_policy(opts.policy_spec, config.server))
    return 2;
  opts.apply_overrides(config);
  return run_observed(config, opts);
}

int cmd_project(const std::vector<const char*>& pos) {
  analysis::ProjectionInput input;
  input.phase2_proteins = static_cast<std::uint32_t>(positional_long(
      pos, 0, "proteins", input.phase2_proteins, 0, kMaxCount));
  input.docking_point_reduction =
      positional_double(pos, 1, "cut", input.docking_point_reduction);
  input.phase2_target_weeks =
      positional_double(pos, 2, "weeks", input.phase2_target_weeks);
  input.hcmd_grid_share =
      positional_double(pos, 3, "share", input.hcmd_grid_share);
  const analysis::ProjectionResult r = analysis::project_phase2(input);
  std::printf("work ratio       : %.3fx\n", r.work_ratio);
  std::printf("cpu time         : %s\n",
              util::format_ydhms(r.phase2_cpu_seconds).c_str());
  std::printf("at phase-I rate  : %.1f weeks\n", r.weeks_at_phase1_rate);
  std::printf("VFTP needed      : %s\n",
              util::with_commas(std::uint64_t(r.vftp_needed)).c_str());
  std::printf("members (project): %s\n",
              util::with_commas(
                  std::uint64_t(r.members_needed_project)).c_str());
  std::printf("members (grid)   : %s\n",
              util::with_commas(
                  std::uint64_t(r.members_needed_grid)).c_str());
  std::printf("new volunteers   : %s\n",
              util::with_commas(
                  std::uint64_t(r.new_volunteers_needed)).c_str());
  return 0;
}

int cmd_dock(std::uint32_t rec_atoms, std::uint32_t lig_atoms) {
  const auto receptor = proteins::generate_protein(1, rec_atoms, 1.1, 2007);
  const auto ligand = proteins::generate_protein(2, lig_atoms, 1.0, 2008);
  docking::MaxDoParams params;
  params.positions.spacing = 10.0;
  params.minimizer.max_iterations = 25;
  params.gamma_steps = 3;
  docking::MaxDoProgram program(receptor, ligand, params);
  docking::MaxDoTask task;
  task.isep_end = std::min<std::uint32_t>(program.nsep(), 4);
  docking::MaxDoCheckpoint cp;
  program.run(task, cp);
  double best = 0.0;
  for (const auto& r : cp.records) best = std::min(best, r.etot());
  std::printf("%zu minimisations over %u positions x 21 rotations; best "
              "E_tot = %.3f kcal/mol; %llu energy evaluations\n",
              cp.records.size(), task.isep_end, best,
              static_cast<unsigned long long>(program.work().evaluations));
  std::printf("kernel variant: %s\n",
              docking::kernel_variant_name(program.engine().kernel_variant()));
  return 0;
}

int cmd_calibrate() {
  const core::Workload w = core::build_workload(core::CampaignConfig{});
  const auto outcome = dedicated::run_calibration(
      w.benchmark, *w.cost_model, dedicated::grid5000_calibration_slice(),
      dedicated::ListPolicy::kLongestProcessingTime);
  std::printf("%0.f jobs on %u processors: makespan %s, cpu %s, "
              "utilisation %.1f%%\n",
              outcome.jobs, outcome.batch.processors,
              util::format_compact(outcome.batch.makespan).c_str(),
              util::format_compact(outcome.batch.cpu_seconds).c_str(),
              100.0 * outcome.batch.utilization);
  return 0;
}

// --- grid service mode -----------------------------------------------------

/// SIGTERM/SIGINT land here; the serve loop polls it every 100 ms, stops the
/// server cleanly and dumps the flight record.
volatile std::sig_atomic_t g_stop_signal = 0;

void handle_stop_signal(int sig) { g_stop_signal = sig; }

/// Crash path: std::terminate (uncaught exception, broken invariant) dumps
/// the flight record before aborting so the last seconds of RPC activity
/// survive the corpse. Best effort — the merge may race a live worker.
server::GridServer* g_serve_grid = nullptr;

[[noreturn]] void serve_terminate_handler() {
  server::GridServer* grid = g_serve_grid;
  g_serve_grid = nullptr;  // never recurse through a second terminate
  if (grid != nullptr) {
    const server::GridServer::FlightDump dump = grid->dump_flight_record();
    if (!dump.path.empty())
      std::fprintf(stderr, "hcmdgrid: terminating; flight record %s "
                   "(%llu events)\n",
                   dump.path.c_str(),
                   static_cast<unsigned long long>(dump.events));
  }
  std::abort();
}

void serve_usage() {
  std::fprintf(
      stderr,
      "usage: hcmdgrid serve [flags]\n"
      "  --listen <addr>      IPv4 listen address (default 127.0.0.1)\n"
      "  --port <n>           TCP port; 0 picks an ephemeral port, printed "
      "at start (default 0)\n"
      "  --workers <n>        network event-loop threads (default 2)\n"
      "  --duration <secs>    wall-clock lifetime; 0 serves until killed "
      "(default 10)\n"
      "  --time-scale <x>     service seconds per wall second (default 1)\n"
      "  --workunits <n>      synthetic catalogue size (default 100000)\n"
      "  --target-hours <h>   per-workunit reference cost (default 4)\n"
      "  --faults <name|file> fault plan; outage windows refuse work over "
      "the wire\n"
      "  --policy <name|file> validation policy (fixed, fixed-q2, adaptive, "
      "or a spec file)\n"
      "  --seed <n>           validation/spot-check RNG seed\n"
      "  --metrics-port <n>   plain-HTTP metrics listener (GET /metrics, "
      "/metrics.json); 0 picks an ephemeral port (default off)\n"
      "  --snapshot-period <s> wall seconds between metric snapshots; 0 "
      "disables (default 1)\n"
      "  --slo-latency <s>    request_work latency objective in service "
      "seconds (default 0.005)\n"
      "  --no-spans           disable per-RPC span timing (stage histograms, "
      "span echoes, flight events)\n"
      "  --flight-prefix <p>  flight-record dumps go to <p>-<epoch-ms>.jsonl "
      "(default flight)\n"
      "SIGTERM/SIGINT stop the server cleanly and dump the flight record.\n");
}

void loadgen_usage() {
  std::fprintf(
      stderr,
      "usage: hcmdgrid loadgen --port <n> [flags]\n"
      "  --host <addr>        server IPv4 address (default 127.0.0.1)\n"
      "  --port <n>           server TCP port (required)\n"
      "  --devices <n>        simulated devices (default 256)\n"
      "  --connections <n>    client threads / sockets (default 4)\n"
      "  --duration <secs>    wall-clock run length (default 5)\n"
      "  --time-scale <x>     service seconds per wall second; match the "
      "server's (default 1)\n"
      "  --faults <name|file> client-side fault plan (loss, corruption, "
      "backoff law)\n"
      "  --seed <n>           device-farm RNG seed\n"
      "  --spans <0|1>        request server-side span echoes per RPC "
      "(default 1)\n"
      "  --out <file>         write the JSON summary "
      "(tools/validate_report.py --serve)\n");
}

int cmd_serve(int argc, char** argv) {
  server::NetOptions net;
  server::ServiceConfig config;
  // Serve-mode default: range-check validation only — the throughput
  // configuration. (Quorum work still happens when a fault plan corrupts
  // results: the spot-check path is driven by the catalogue, not time.)
  config.server.validation.quorum2_until = 0.0;
  config.server.validation.spot_check_fraction = 0.0;
  double duration = 10.0;
  long workunits = 100000;
  double target_hours = 4.0;
  std::string faults_spec;
  std::string policy_spec;

  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--listen") {
      net.listen = flag_value(argc, argv, i, serve_usage);
    } else if (a == "--port") {
      net.port = static_cast<std::uint16_t>(
          parse_long_flag("--port", flag_value(argc, argv, i, serve_usage), 0,
                          65535, serve_usage));
    } else if (a == "--workers") {
      net.workers = static_cast<std::uint32_t>(
          parse_long_flag("--workers", flag_value(argc, argv, i, serve_usage),
                          1, 1024, serve_usage));
    } else if (a == "--duration") {
      duration = parse_double_flag(
          "--duration", flag_value(argc, argv, i, serve_usage), serve_usage,
          0.0);
    } else if (a == "--time-scale") {
      net.time_scale = parse_double_flag(
          "--time-scale", flag_value(argc, argv, i, serve_usage), serve_usage);
    } else if (a == "--workunits") {
      workunits = parse_long_flag("--workunits",
                                  flag_value(argc, argv, i, serve_usage), 1,
                                  100000000, serve_usage);
    } else if (a == "--target-hours") {
      target_hours = parse_double_flag(
          "--target-hours", flag_value(argc, argv, i, serve_usage),
          serve_usage);
    } else if (a == "--faults") {
      faults_spec = flag_value(argc, argv, i, serve_usage);
    } else if (a == "--policy") {
      policy_spec = flag_value(argc, argv, i, serve_usage);
    } else if (a == "--seed") {
      config.seed = static_cast<std::uint64_t>(
          parse_long_flag("--seed", flag_value(argc, argv, i, serve_usage), 0,
                          std::numeric_limits<long>::max(), serve_usage));
    } else if (a == "--metrics-port") {
      net.metrics_port = static_cast<std::int32_t>(parse_long_flag(
          "--metrics-port", flag_value(argc, argv, i, serve_usage), 0, 65535,
          serve_usage));
    } else if (a == "--snapshot-period") {
      net.snapshot_period = parse_double_flag(
          "--snapshot-period", flag_value(argc, argv, i, serve_usage),
          serve_usage);
    } else if (a == "--slo-latency") {
      config.slo_latency_seconds = parse_double_flag(
          "--slo-latency", flag_value(argc, argv, i, serve_usage),
          serve_usage);
    } else if (a == "--no-spans") {
      config.spans = false;
    } else if (a == "--flight-prefix") {
      net.flight_prefix = flag_value(argc, argv, i, serve_usage);
    } else {
      serve_usage();
      throw ConfigError("unknown serve flag " + std::string(a));
    }
  }
  if (!faults_spec.empty() && !resolve_faults(faults_spec, config.faults))
    return 2;
  // A spec replaces the validation config, including the serve-mode
  // quorum-off defaults set above.
  if (!policy_spec.empty() && !resolve_policy(policy_spec, config.server))
    return 2;

  server::GridServer grid(
      server::synthetic_catalog(static_cast<std::uint32_t>(workunits),
                                target_hours),
      std::move(config), net);
  grid.start();
  std::printf("serving on %s:%u (%u workers, %ld workunits)\n",
              net.listen.c_str(), grid.port(), net.workers, workunits);
  if (grid.metrics_port() != 0)
    std::printf("metrics on http://%s:%u/metrics\n", net.listen.c_str(),
                grid.metrics_port());
  std::fflush(stdout);

  // Clean-shutdown signals and the crash-path flight dump. The handlers are
  // restored implicitly at exit; g_serve_grid is cleared before `grid` dies.
  g_stop_signal = 0;
  g_serve_grid = &grid;
  const std::terminate_handler prev_terminate =
      std::set_terminate(serve_terminate_handler);
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(duration));
  while (g_stop_signal == 0 &&
         (duration <= 0.0 || std::chrono::steady_clock::now() < deadline))
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  grid.stop();
  g_serve_grid = nullptr;
  std::set_terminate(prev_terminate);

  if (g_stop_signal != 0) {
    std::printf("caught %s; stopped\n",
                g_stop_signal == SIGTERM ? "SIGTERM" : "SIGINT");
    const server::GridServer::FlightDump dump = grid.dump_flight_record();
    if (!dump.path.empty())
      std::printf("flight record: %s (%llu events)\n", dump.path.c_str(),
                  static_cast<unsigned long long>(dump.events));
    else
      std::fprintf(stderr, "hcmdgrid: flight-record dump failed\n");
  }

  const server::GridServer::Stats s = grid.stats();
  const auto& counters = grid.service().project().counters();
  std::printf("served %llu frames in / %llu out over %llu connections "
              "(%llu protocol errors)\n",
              static_cast<unsigned long long>(s.frames_in),
              static_cast<unsigned long long>(s.frames_out),
              static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.protocol_errors));
  std::printf("results: %llu sent, %llu received, %llu workunits completed\n",
              static_cast<unsigned long long>(counters.results_sent),
              static_cast<unsigned long long>(counters.results_received),
              static_cast<unsigned long long>(counters.workunits_completed));
  return 0;
}

int cmd_loadgen(int argc, char** argv) {
  client::LoadgenOptions options;
  std::string faults_spec;
  std::string out_path;

  for (int i = 2; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--host") {
      options.host = flag_value(argc, argv, i, loadgen_usage);
    } else if (a == "--port") {
      options.port = static_cast<std::uint16_t>(
          parse_long_flag("--port", flag_value(argc, argv, i, loadgen_usage),
                          1, 65535, loadgen_usage));
    } else if (a == "--devices") {
      options.devices = static_cast<std::uint32_t>(parse_long_flag(
          "--devices", flag_value(argc, argv, i, loadgen_usage), 1, 10000000,
          loadgen_usage));
    } else if (a == "--connections") {
      options.connections = static_cast<std::uint32_t>(parse_long_flag(
          "--connections", flag_value(argc, argv, i, loadgen_usage), 1, 4096,
          loadgen_usage));
    } else if (a == "--duration") {
      options.duration_seconds = parse_double_flag(
          "--duration", flag_value(argc, argv, i, loadgen_usage),
          loadgen_usage);
    } else if (a == "--time-scale") {
      options.time_scale = parse_double_flag(
          "--time-scale", flag_value(argc, argv, i, loadgen_usage),
          loadgen_usage);
    } else if (a == "--faults") {
      faults_spec = flag_value(argc, argv, i, loadgen_usage);
    } else if (a == "--seed") {
      options.seed = static_cast<std::uint64_t>(parse_long_flag(
          "--seed", flag_value(argc, argv, i, loadgen_usage), 0,
          std::numeric_limits<long>::max(), loadgen_usage));
    } else if (a == "--spans") {
      options.spans = parse_long_flag("--spans",
                                      flag_value(argc, argv, i, loadgen_usage),
                                      0, 1, loadgen_usage) != 0;
    } else if (a == "--out") {
      out_path = flag_value(argc, argv, i, loadgen_usage);
    } else {
      loadgen_usage();
      throw ConfigError("unknown loadgen flag " + std::string(a));
    }
  }
  if (options.port == 0) {
    loadgen_usage();
    throw ConfigError("--port is required");
  }
  if (!faults_spec.empty() && !resolve_faults(faults_spec, options.faults))
    return 2;

  const client::LoadgenReport report = client::run_loadgen(options);
  std::printf("%llu RPCs in %.2f s -> %.0f req/s\n",
              static_cast<unsigned long long>(report.replies),
              report.wall_seconds, report.requests_per_sec);
  std::printf("issue latency: p50 %.3f ms, p99 %.3f ms, p999 %.3f ms "
              "(%llu samples)\n",
              1e3 * report.issue_latency.quantile(0.50),
              1e3 * report.issue_latency.quantile(0.99),
              1e3 * report.issue_latency.quantile(0.999),
              static_cast<unsigned long long>(report.issue_latency.total()));
  if (report.span_replies > 0)
    std::printf("server stages: queue-wait p50 %.3f ms, service p50 %.3f ms, "
                "net residual p50 %.3f ms (%llu span echoes)\n",
                1e3 * report.span_queue_wait.quantile(0.50),
                1e3 * report.span_service.quantile(0.50),
                1e3 * report.net_residual.quantile(0.50),
                static_cast<unsigned long long>(report.span_replies));
  std::printf("outcomes: %llu assignments, %llu no-work, %llu busy, "
              "%llu acks (%llu dup), %llu errors\n",
              static_cast<unsigned long long>(report.assignments),
              static_cast<unsigned long long>(report.no_work),
              static_cast<unsigned long long>(report.busy),
              static_cast<unsigned long long>(report.acks),
              static_cast<unsigned long long>(report.duplicate_acks),
              static_cast<unsigned long long>(report.errors));
  if (report.reports_lost + report.reports_corrupted + report.backoff_waits >
      0)
    std::printf("faults: %llu lost, %llu corrupted, %llu backoff waits, "
                "%llu deferred uploads\n",
                static_cast<unsigned long long>(report.reports_lost),
                static_cast<unsigned long long>(report.reports_corrupted),
                static_cast<unsigned long long>(report.backoff_waits),
                static_cast<unsigned long long>(report.deferred_uploads));
  if (!out_path.empty())
    return write_file(out_path, client::loadgen_json(options, report));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    // The arguments after the subcommand (serve and loadgen parse theirs
    // below).
    const std::vector<const char*> args(argv + 2, argv + argc);
    constexpr long kMaxAtoms = 1000000;
    if (cmd == "workload") {
      reject_surplus(args, 0);
      return cmd_workload();
    }
    if (cmd == "package") {
      reject_surplus(args, 1);
      return args.empty() ? usage()
                          : cmd_package(parse_double_flag("hours", args[0],
                                                          print_usage));
    }
    if (cmd == "campaign" || cmd == "phase2") {
      RunOptions opts;
      std::vector<const char*> pos;
      parse_run_args(argc, argv, 2, opts, pos);
      reject_surplus(pos, 2);
      if (cmd == "campaign")
        return cmd_campaign(
            static_cast<int>(
                positional_long(pos, 0, "scale_denom", 50, 1, kMaxCount)),
            positional_double(pos, 1, "target_hours", 4.0), opts);
      return cmd_phase2(
          positional_double(pos, 0, "grid_vftp", 0.0, 0.0),
          static_cast<int>(
              positional_long(pos, 1, "scale_denom", 200, 1, kMaxCount)),
          opts);
    }
    if (cmd == "project") {
      reject_surplus(args, 4);
      return cmd_project(args);
    }
    if (cmd == "dock") {
      reject_surplus(args, 2);
      return cmd_dock(
          static_cast<std::uint32_t>(positional_long(
              args, 0, "receptor_atoms", 120, 1, kMaxAtoms)),
          static_cast<std::uint32_t>(positional_long(
              args, 1, "ligand_atoms", 80, 1, kMaxAtoms)));
    }
    if (cmd == "calibrate") {
      reject_surplus(args, 0);
      return cmd_calibrate();
    }
    if (cmd == "serve") {
      if (argc > 2 && std::string_view(argv[2]) == "--help") {
        serve_usage();
        return 0;
      }
      return cmd_serve(argc, argv);
    }
    if (cmd == "loadgen") {
      if (argc > 2 && std::string_view(argv[2]) == "--help") {
        loadgen_usage();
        return 0;
      }
      return cmd_loadgen(argc, argv);
    }
  } catch (const hcmd::ConfigError& e) {
    // Bad configuration is a usage error, distinct from runtime failure.
    std::fprintf(stderr, "hcmdgrid: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcmdgrid: %s\n", e.what());
    return 1;
  }
  return usage();
}
