// Pluggable validation policies for the project server.
//
// The redundancy regime — how many copies of a workunit go out and how many
// matching results assimilation needs — used to be a hard-coded decision
// block inside ProjectServer::request_work. It is now a first-class policy
// object consulted at every issue decision and fed every validation outcome:
//
//   FixedQuorumPolicy    the paper's date-switched regime (quorum-2 for the
//                        first 11 weeks, then range-check quorum-1 with a
//                        spot-check fraction still double-issued), plus the
//                        legacy count-based adaptive knob. Byte-for-byte the
//                        behaviour the campaign goldens pin.
//   AdaptiveTrustPolicy  a per-device reputation ledger (validation
//                        outcomes -> credibility score with half-life
//                        decay). Trusted devices drop to quorum-1 with a
//                        deterministic 1-in-K spot check; any mismatch
//                        resets the device to quorum-2. Re-issued / extra /
//                        end-game copies re-evaluate the quorum for the
//                        receiving device, so an untrusted device can never
//                        be the sole validator of a workunit.
//
// Determinism contract: policies mutate state only inside server calls,
// which the sharded engine replays at epoch barriers in (time, lane,
// device, seq) merge order — so policy decisions, and therefore whole
// campaigns, stay bit-identical at any shard count. FixedQuorumPolicy draws
// its spot-check Bernoulli from the server's own stream in exactly the
// branch order the inline code used, keeping pre-policy goldens bit-exact.
// AdaptiveTrustPolicy makes no RNG draws at all: spot checks come from a
// per-device counter with a SplitMix64-hashed phase, salted from a fork of
// the server stream at construction (the same fork discipline the fault
// schedule uses for straggler membership).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace hcmd::server {

/// Knobs of the fixed (paper-reproduction) regime (Section 5.1: the
/// redundancy factor "was higher at the beginning, because the results were
/// compared to each other to be validated, but later we provided a method
/// to validate the results by checking the values returned in the result
/// file").
struct ValidationConfig {
  /// Campaign time until which every workunit needs a quorum of 2 matching
  /// results.
  double quorum2_until = 11.0 * 7.0 * 86400.0;
  /// After that, fraction of workunits still double-issued as a spot check.
  double spot_check_fraction = 0.27;

  /// Count-based adaptive replication: results from devices without an
  /// established clean history are validated by a quorum of 2 instead of
  /// the range check alone. Off by default (the Phase I reproduction).
  /// AdaptiveTrustPolicy does not replace it on intermittent corruption: on
  /// bench_ablation_validation's fleet (the fault plan's 3 % of devices
  /// silently corrupt 15 % of their results; scale 0.02, seeds 11/22/33)
  /// this knob assimilates 0.098-0.120 % of workunits corrupt, the trust
  /// ledger 0.370-0.511 % and the range check alone 0.430-0.534 %.
  bool adaptive = false;
  /// Results a device must return before it can be trusted.
  std::uint32_t adaptive_min_samples = 5;
  /// Maximum bad-result fraction for a device to count as trusted.
  double adaptive_max_bad_fraction = 0.05;
};

/// Knobs of the reputation-ledger policy.
struct AdaptiveTrustConfig {
  /// Credibility moves s <- s + gain * (1 - s) on each verified-clean
  /// outcome; with the default threshold one verified result earns trust.
  double trust_gain = 0.5;
  /// Devices at or above this score get quorum-1 (spot-checked) work.
  double trust_threshold = 0.3;
  /// Credibility halves every this many days without a verified outcome, so
  /// trust expires for devices that stop validating.
  double half_life_days = 180.0;
  /// Deterministic spot checks: 1 in this many quorum-1 decisions per
  /// trusted device is still double-issued and compared after the fact.
  /// 0 disables spot checks.
  std::uint32_t spot_check_every = 32;
};

enum class PolicyKind : std::uint8_t {
  kFixedQuorum = 0,
  kAdaptiveTrust = 1,
};
const char* policy_kind_name(PolicyKind kind);

/// Redundancy regime for one fresh workunit.
struct IssueDecision {
  std::uint8_t quorum_needed = 1;  ///< valid results assimilation requires
  std::uint8_t target_issues = 1;  ///< initial copies to send
};

/// Validation outcomes the server feeds back, one event per affected
/// device. "Partner" events go to the other quorum member when a pairwise
/// comparison resolves; "canonical" events go to the device whose result
/// was assimilated when a late copy compares against it. Only the
/// reporting-device events count a received result; partner/canonical
/// events adjust reputation without double-counting returns.
enum class ResultEvent : std::uint8_t {
  kComputationError,       ///< client-side failure, detectably bad
  kPendingQuorum,          ///< clean-looking, waiting for its partner
  kAssimilatedUnverified,  ///< quorum-1 range check alone accepted it
  kQuorumVerified,         ///< second member arrived and matched
  kQuorumMismatch,         ///< second member arrived and disagreed
  kLateAgreement,          ///< late copy matched the assimilated canonical
  kLateMismatch,           ///< late copy disagreed with the canonical
  kPartnerVerified,        ///< device's pending result was matched
  kPartnerMismatch,        ///< device's pending result was contradicted
  kCanonicalConfirmed,     ///< device's assimilated result was confirmed
  kCanonicalRefuted,       ///< device's assimilated result was contradicted
};

/// Decision tallies for the run report's `validation` section.
struct PolicyCounters {
  std::uint64_t decisions = 0;         ///< fresh-workunit regime decisions
  std::uint64_t quorum2_decisions = 0; ///< decided quorum-2 (both copies)
  std::uint64_t spot_checks = 0;       ///< quorum-1 but double-issued
  std::uint64_t solo_issues = 0;       ///< quorum-1, single copy
  std::uint64_t escalations = 0;       ///< later copies bumped to quorum-2
  std::uint64_t trust_promotions = 0;  ///< devices crossing the threshold
  std::uint64_t trust_demotions = 0;   ///< trusted devices reset by a fault
};

/// Copyable end-of-run snapshot (the server outlives neither the campaign
/// report nor the JSON writer, so the summary is by value).
struct PolicySummary {
  std::string name;
  PolicyCounters counters;
  std::uint64_t devices_tracked = 0;  ///< devices with any ledger history
  std::uint64_t devices_trusted = 0;  ///< trusted at the last event time
  double mean_score = 0.0;            ///< mean decayed credibility

  double spot_check_rate() const {
    return counters.decisions == 0
               ? 0.0
               : static_cast<double>(counters.spot_checks) /
                     static_cast<double>(counters.decisions);
  }
  double quorum2_rate() const {
    return counters.decisions == 0
               ? 0.0
               : static_cast<double>(counters.quorum2_decisions) /
                     static_cast<double>(counters.decisions);
  }
};

class ValidationPolicy {
 public:
  virtual ~ValidationPolicy() = default;

  virtual const char* name() const = 0;
  virtual PolicyKind kind() const = 0;

  /// Redundancy regime for a workunit first issued to `device_id` at `now`.
  /// `rng` is the server's own stream; FixedQuorumPolicy draws its
  /// spot-check Bernoulli from it (preserving the pre-policy draw order),
  /// AdaptiveTrustPolicy never touches it.
  virtual IssueDecision on_first_issue(std::uint32_t device_id, double now,
                                       util::Rng& rng) = 0;

  /// Re-evaluates an in-progress workunit's quorum when a later copy (re-
  /// issue, extra initial copy, end-game duplicate) goes to `device_id`.
  /// Returns the quorum the workunit should need from now on (>= current).
  /// The fixed policy keeps the first-issue regime, as WCG did; the
  /// adaptive policy escalates to 2 when the receiving device is untrusted,
  /// which is what keeps a saboteur from ever being the sole validator.
  virtual std::uint8_t escalate_quorum(std::uint32_t device_id, double now,
                                       std::uint8_t current) {
    (void)device_id;
    (void)now;
    return current;
  }

  /// One validation outcome for `device_id` (see ResultEvent).
  virtual void on_result(std::uint32_t device_id, double now,
                         ResultEvent event) = 0;

  /// True when the device's next fresh workunit would be single-issued
  /// (introspection for tests and reports; never consulted by the server).
  virtual bool device_trusted(std::uint32_t device_id, double now) const = 0;

  virtual PolicySummary summary() const = 0;

  const PolicyCounters& counters() const { return counters_; }

 protected:
  PolicyCounters counters_;
};

/// The paper's regime, extracted verbatim (including the legacy count-based
/// adaptive knob and its per-device received/bad history).
class FixedQuorumPolicy final : public ValidationPolicy {
 public:
  explicit FixedQuorumPolicy(ValidationConfig config);

  const char* name() const override { return "fixed"; }
  PolicyKind kind() const override { return PolicyKind::kFixedQuorum; }
  IssueDecision on_first_issue(std::uint32_t device_id, double now,
                               util::Rng& rng) override;
  void on_result(std::uint32_t device_id, double now,
                 ResultEvent event) override;
  bool device_trusted(std::uint32_t device_id, double now) const override;
  PolicySummary summary() const override;

 private:
  /// Per-device history for the legacy adaptive knob.
  struct DeviceHistory {
    std::uint32_t received = 0;
    std::uint32_t bad = 0;  ///< invalid or quorum-mismatched
  };
  DeviceHistory& slot(std::uint32_t device_id) {
    if (device_id >= history_.size()) history_.resize(device_id + 1);
    return history_[device_id];
  }

  ValidationConfig config_;
  std::vector<DeviceHistory> history_;
};

/// The reputation-ledger policy (arXiv 2102.00422's credibility scheme
/// adapted to this server's event vocabulary).
class AdaptiveTrustPolicy final : public ValidationPolicy {
 public:
  /// `salt` seeds the per-device spot-check phases (callers pass
  /// `rng.fork("policy").next_u64()` — the fork is const, so deriving the
  /// salt never perturbs the server stream).
  AdaptiveTrustPolicy(AdaptiveTrustConfig config, std::uint64_t salt);

  const char* name() const override { return "adaptive"; }
  PolicyKind kind() const override { return PolicyKind::kAdaptiveTrust; }
  IssueDecision on_first_issue(std::uint32_t device_id, double now,
                               util::Rng& rng) override;
  std::uint8_t escalate_quorum(std::uint32_t device_id, double now,
                               std::uint8_t current) override;
  void on_result(std::uint32_t device_id, double now,
                 ResultEvent event) override;
  bool device_trusted(std::uint32_t device_id, double now) const override;
  PolicySummary summary() const override;

  /// Decayed credibility of a device at `now` (tests / reports).
  double score(std::uint32_t device_id, double now) const;

 private:
  struct Reputation {
    double score = 0.0;        ///< credibility at last_update
    double last_update = 0.0;  ///< time of the last score change
    std::uint32_t results = 0;      ///< results received from the device
    std::uint32_t bad = 0;          ///< penalised outcomes
    std::uint32_t spot_counter = 0; ///< quorum-1 decisions so far
    /// Hashed offset into the 1-in-K cycle; 0xFFFFFFFF until first contact
    /// (slot() derives it from the salt then).
    std::uint32_t spot_phase = 0xFFFFFFFFu;
  };

  Reputation& slot(std::uint32_t device_id);
  double decayed(const Reputation& r, double now) const;
  bool trusted(const Reputation& r, double now) const {
    return decayed(r, now) >= config_.trust_threshold;
  }
  void credit(Reputation& r, double now);
  void penalise(Reputation& r, double now);

  AdaptiveTrustConfig config_;
  std::uint64_t salt_ = 0;
  double last_event_time_ = 0.0;
  std::vector<Reputation> ledger_;
};

// --- policy specs: presets and `key = value` files -------------------------
//
// The same discipline as fault plans: compiled-in presets (`policy_preset`),
// spec files on disk (`load_policy_spec`), and examples/policies/ ships the
// preset texts byte-identically (a unit test diffs them).

/// A parsed policy selection: which policy plus its full configuration.
/// Fields not named in a spec take the documented defaults above.
struct PolicySpec {
  PolicyKind kind = PolicyKind::kFixedQuorum;
  ValidationConfig validation;
  AdaptiveTrustConfig adaptive_trust;
};

PolicySpec parse_policy_spec(std::string_view text);
PolicySpec load_policy_spec(const std::string& path);

const std::vector<std::string>& policy_preset_names();
bool is_policy_preset(std::string_view name);
PolicySpec policy_preset(std::string_view name);
std::string_view policy_preset_text(std::string_view name);

/// Builds the configured policy. `rng` is the server stream; only the
/// adaptive policy forks it (const) for its spot-check salt.
std::unique_ptr<ValidationPolicy> make_validation_policy(
    PolicyKind kind, const ValidationConfig& validation,
    const AdaptiveTrustConfig& adaptive_trust, const util::Rng& rng);

}  // namespace hcmd::server
