#include "core/replication.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "util/error.hpp"
#include "util/worker_group.hpp"

namespace hcmd::core {

const MetricSummary& ReplicationResult::metric(
    const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return m;
  throw Error("ReplicationResult: unknown metric '" + name + "'");
}

namespace {

MetricSummary summarize_metric(const std::string& name,
                               const std::vector<double>& xs) {
  const util::Summary s = util::summarize(xs);
  MetricSummary m;
  m.name = name;
  m.mean = s.mean;
  m.stddev = s.stddev;
  m.ci95 = s.count > 0
               ? 1.96 * s.stddev / std::sqrt(static_cast<double>(s.count))
               : 0.0;
  m.min = s.min;
  m.max = s.max;
  return m;
}

}  // namespace

ReplicationResult replicate_campaign(const CampaignConfig& config,
                                     std::size_t replicas,
                                     std::uint64_t base_seed,
                                     std::size_t threads) {
  if (replicas == 0)
    throw ConfigError("replicate_campaign: need at least one replica");
  config.validate();

  ReplicationResult result;
  result.replicas = replicas;
  result.reports.resize(replicas);

  // Each replica is itself a parallel program when config.shards > 1 (the
  // sharded engine runs up to `shards` workers). Cap the replica-level
  // fan-out so replicas x shards never oversubscribes the machine:
  // `threads` (or the hardware count when 0) is treated as the *total*
  // worker budget and divided by the per-replica shard parallelism.
  std::size_t budget = threads;
  if (budget == 0) {
    budget = std::thread::hardware_concurrency();
    if (budget == 0) budget = 1;
  }
  const std::size_t replica_workers = std::max<std::size_t>(
      1, budget / std::max<std::size_t>(1, config.shards));
  // One round: each lane claims replica indices until none are left and
  // writes each report to its own slot, so the reports do not depend on
  // the lane count. A lane's exception reaches the caller from run().
  std::atomic<std::size_t> next{0};
  util::WorkerGroup group(std::min(replica_workers, replicas));
  group.run([&](std::size_t) {
    for (std::size_t i = next++; i < replicas; i = next++) {
      CampaignConfig replica = config;
      replica.seed = base_seed + i;
      result.reports[i] = run_campaign(replica);
    }
  });

  auto collect = [&](const std::string& name, auto&& extract) {
    std::vector<double> xs;
    xs.reserve(replicas);
    for (const auto& r : result.reports) xs.push_back(extract(r));
    result.metrics.push_back(summarize_metric(name, xs));
  };
  collect("completion_weeks",
          [](const CampaignReport& r) { return r.completion_weeks; });
  collect("redundancy_factor",
          [](const CampaignReport& r) { return r.redundancy_factor; });
  collect("useful_fraction",
          [](const CampaignReport& r) { return r.useful_fraction; });
  collect("gross_speeddown", [](const CampaignReport& r) {
    return r.counters.useful_reference_seconds > 0
               ? r.speeddown.gross_speeddown()
               : 0.0;
  });
  collect("net_speeddown", [](const CampaignReport& r) {
    return r.counters.useful_reference_seconds > 0
               ? r.speeddown.net_speeddown()
               : 0.0;
  });
  collect("avg_hcmd_vftp_whole",
          [](const CampaignReport& r) { return r.avg_hcmd_vftp_whole; });
  collect("avg_hcmd_vftp_fullpower", [](const CampaignReport& r) {
    return r.avg_hcmd_vftp_fullpower;
  });
  collect("avg_wcg_vftp_whole",
          [](const CampaignReport& r) { return r.avg_wcg_vftp_whole; });
  collect("results_received", [](const CampaignReport& r) {
    return r.results_received_rescaled();
  });
  collect("mean_runtime_hours", [](const CampaignReport& r) {
    return r.runtime_summary.mean / 3600.0;
  });
  collect("spot_check_rate", [](const CampaignReport& r) {
    return r.validation.policy.spot_check_rate();
  });
  collect("quorum2_rate", [](const CampaignReport& r) {
    return r.validation.policy.quorum2_rate();
  });
  collect("corruption_injected", [](const CampaignReport& r) {
    return static_cast<double>(r.validation.corruption_injected);
  });
  collect("corruption_assimilated", [](const CampaignReport& r) {
    return static_cast<double>(r.validation.corruption_assimilated);
  });
  return result;
}

}  // namespace hcmd::core
