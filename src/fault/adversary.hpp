// Adversarial scenario engine (paper §II-A threat model, §III-H attack
// taxonomy), layered on the fault campaign's trial anatomy.
//
// Where the FaultInjector models *accidental* failures (torn queue drains,
// media flips), the adversary models a deliberate attacker with full
// read/record/modify access to the NVM array and the memory bus but no
// access to the on-chip domain (keys, root registers, LIncs, ADR). Each
// scenario snapshots persisted state at the trial's checkpoint flush and
// replays, forges, or tears it at a crash or scrub boundary:
//
//   node-rollback     one persisted SIT node (image + ECC-colocated tags)
//                     reverted to its checkpoint version;
//   subtree-rollback  an internal node plus every persisted descendant and
//                     the covered data lines reverted wholesale — the
//                     consistent-stale-state replay the LIncs exist for;
//   nv-bypass-replay  rollback targeting a node whose generated parent
//                     counter sits in the NV buffer (Steins §III-E), i.e.
//                     replayed around the buffered update;
//   record-forgery    the aux tracking region rewritten dirty->clean
//                     (entries erased) or clean->dirty (plausible entries
//                     planted) per §III-H;
//   torn-record       2-3 aux/metadata lines torn between their checkpoint
//                     and crash images at 8-byte word granularity — a
//                     multi-line record update that lands partially;
//   data-replay       a data line + tag sidecars replayed at runtime,
//                     mid-burst (caught by patrol scrub, a demand read, or
//                     recovery — whichever fires first);
//   wear-out          no mutation: accelerated per-cell endurance with a
//                     tiny spare pool, driving uncorrectable-line
//                     retirement through the quarantine machinery.
//
// Trials run the one fault-trial engine, run_fault_trial(), for a single
// cycle with the scenario's hooks and a clean crash (the queue drains
// intact), so the audit runs in strict-window mode: every posted write was
// acknowledged durable, and serving ANY older version is silent corruption
// unless a check fired first. Verdicts carry detection latency
// (accesses from injection to the firing check) and blast radius
// (lines/subtrees/blocks quarantined).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"

namespace steins {

enum class AdversaryScenario {
  kNodeRollback,
  kSubtreeRollback,
  kNvBypassReplay,
  kRecordForgery,
  kTornRecord,
  kDataReplay,
  kWearOut,
};

/// Canonical CLI name, e.g. "subtree-rollback".
const char* adversary_scenario_name(AdversaryScenario s);

/// Parse a CLI name (canonical or short alias: node, subtree, bypass,
/// forge, torn, data, wear).
std::optional<AdversaryScenario> parse_adversary_scenario(std::string_view name);

/// Every scenario, in matrix-column order.
const std::vector<AdversaryScenario>& all_adversary_scenarios();

/// Seed-derived description of one adversarial mutation; the analog of
/// FaultPlan, and the same purity contract: every decision the scenario
/// makes derives from (scenario, campaign seed, trial index).
struct AdversaryPlan {
  AdversaryScenario scenario = AdversaryScenario::kNodeRollback;
  std::uint64_t seed = 0;

  static AdversaryPlan derive(AdversaryScenario s, std::uint64_t campaign_seed,
                              std::uint64_t trial);
};

/// Bus-snooping snapshot: block image plus both ECC-colocated tag sidecars
/// for every resident line of the data, SIT-node, and aux regions.
struct AdversarySnapshot {
  struct Line {
    Block block{};
    std::uint64_t tag = 0;
    std::uint64_t tag2 = 0;
  };
  std::map<Addr, Line> lines;

  bool empty() const { return lines.empty(); }
  bool contains(Addr addr) const { return lines.count(addr) != 0; }
};

/// Capture the persisted state the attacker recorded (data + metadata +
/// aux regions; the reserved quarantine-map region is out of scope).
AdversarySnapshot snapshot_device(SecureMemoryBase& mem);

/// Apply one scenario's post-crash mutation against the device: replay
/// stale versions from the snapshot, forge or tear tracking lines. Must run
/// after crash() so ADR-resident structures have reached the device.
/// Returns false when the scenario found nothing to mutate (a no-op attack
/// — e.g. no line changed since the snapshot). `events`, if non-null,
/// receives a short log of what was mutated. Deterministic in plan.seed.
/// kDataReplay and kWearOut are runtime scenarios and always return false
/// here.
bool apply_adversary_post_crash(SecureMemoryBase& mem, Scheme scheme,
                                const AdversaryPlan& plan,
                                const AdversarySnapshot& snap, std::string* events);

/// Apply the runtime data-replay mutation: revert one data line that
/// changed since the snapshot (+ its tag sidecars). Returns false when no
/// data line has changed yet.
bool apply_data_replay(SecureMemoryBase& mem, const AdversaryPlan& plan,
                       const AdversarySnapshot& snap, std::string* events);

struct AttackOutcome {
  AdversaryScenario scenario = AdversaryScenario::kNodeRollback;
  TrialOutcome trial;  // trial.cls stays kNone: the crash itself is clean
};

struct AttackCampaignOptions {
  std::uint64_t trials = 100;
  std::uint64_t seed = 42;
  unsigned jobs = 1;
  std::vector<SchemeSpec> schemes;            // empty = attack_schemes()
  std::vector<AdversaryScenario> scenarios;   // empty = all
  FaultTrialOptions workload;
  std::optional<std::uint64_t> only_trial;    // reproduce one trial index
};

/// One (scheme, scenario) cell of the verdict matrix, with the detection
/// telemetry the verdicts alone do not carry.
struct AttackCell {
  VerdictCounts verdicts;
  std::uint64_t injected = 0;  // trials whose mutation actually landed
  std::vector<std::uint64_t> latencies;     // per detected trial, sorted
  std::vector<std::uint64_t> blast_lines;   // per trial, sorted
  std::vector<std::uint64_t> blast_blocks;  // per trial, sorted
  std::map<std::string, std::uint64_t> layers;  // detect_layer histogram
};

/// p-th percentile (0-100) of a sorted sample; 0 for an empty one.
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, unsigned p);

struct AttackCampaignResult {
  AttackCampaignOptions options;  // schemes/scenarios resolved to defaults
  std::vector<AttackOutcome> outcomes;  // trial-major, scheme-minor order

  AttackCell cell(const std::string& scheme, AdversaryScenario s) const;
  std::uint64_t silent_total() const;
  std::vector<const AttackOutcome*> silent_outcomes() const;

  void print(bool verbose = false, std::FILE* out = stdout) const;

  /// Machine-readable record (BENCH_attack.json's `attack`): options, per-cell verdict
  /// counts, detection-latency and blast-radius percentiles, layer
  /// histogram, silent trial details.
  std::string to_json() const;
};

/// Default scheme set for attack campaigns: the recoverable schemes plus
/// write-back (which must report itself unrecoverable, never serve a
/// replayed image silently).
std::vector<SchemeSpec> attack_schemes();

/// Run one (scheme, scenario, trial) cell. Reuses the fault-campaign trial
/// anatomy (same workload derivation) with the scenario's hooks threaded
/// through and strict-window auditing.
AttackOutcome run_attack_trial(const SchemeSpec& spec, AdversaryScenario scenario,
                               std::uint64_t campaign_seed, std::uint64_t trial,
                               const FaultTrialOptions& workload);

/// Run the whole matrix. Trial t draws scenarios[t % size]; jobs > 1 fans
/// cells across a thread pool with results bit-identical to sequential.
/// Throws std::invalid_argument for an empty campaign.
AttackCampaignResult run_attack_campaign(const AttackCampaignOptions& opts);

}  // namespace steins
