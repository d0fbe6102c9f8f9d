// Fault-injection campaigns: N seeded trials x schemes x fault classes,
// each trial ending in one crash verdict (fault/verdict.hpp holds the
// taxonomy: recovered, recovered-after-retry, salvaged, detected, silent,
// unrecoverable).
//
// Trials are pure functions of (campaign seed, trial index): the workload,
// the crash point, and every injected fault derive from them, so a verdict
// reproduces bit-for-bit — alone, under --jobs N, or re-run via --trial.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "fault/fault.hpp"
#include "fault/verdict.hpp"
#include "sim/experiment.hpp"

namespace steins {

/// Workload shape of one trial (small enough that thousands of trials —
/// each with its own scheme instance and SCUE's whole-tree recovery — stay
/// fast, large enough to keep the metadata cache under eviction pressure).
struct FaultTrialOptions {
  std::uint64_t ops = 384;              // phase-1 accesses (75% writes)
  std::uint64_t footprint_blocks = 2048;  // addresses drawn from this range
  std::uint64_t capacity_mb = 16;       // per-trial NVM capacity
  std::uint64_t mcache_kb = 16;         // metadata cache (keeps eviction live)
  /// Fault-tolerance knobs for the trial instance. ECC is on and the patrol
  /// scrubber runs every 64 accesses so the quarantine machinery is
  /// exercised by the campaign (the runtime default leaves scrub off).
  FaultToleranceConfig ft{.ecc_enabled = true,
                          .max_read_retries = 3,
                          .retry_backoff_cycles = 32,
                          .scrub_interval_accesses = 64,
                          .scrub_lines_per_epoch = 8,
                          .scrub_verify_macs = true};
  /// Per-cell endurance model for the trial device (0 = disabled, the
  /// fault-campaign default). The wear-out scenario sets a mean of a few
  /// dozen writes so lines die inside one trial.
  std::uint64_t endurance_mean_writes = 0;
  std::uint64_t endurance_sigma_writes = 0;
  /// Override the device spare-line pool (nullopt keeps NvmConfig's 32).
  std::optional<std::size_t> remap_pool_lines;
  /// Nested recovery crash (DESIGN.md §17): arm the injector to crash the
  /// recovery itself at this 1-based persist boundary (0 = off), optionally
  /// re-arming at the same depth on every retry so only the exponential
  /// persist-budget backoff makes progress.
  std::uint64_t recovery_crash_boundary = 0;
  bool recovery_crash_rearm = false;
  /// Bounded re-entry budget for crashed recoveries.
  RecoveryRetryPolicy retry_policy;
  /// Crash/recover cycles per trial on one instance (the recovery storm
  /// runs 2 and 4; every other campaign 1).
  std::uint64_t cycles = 1;
};

struct TrialOutcome {
  std::uint64_t trial = 0;
  FaultClass cls = FaultClass::kNone;
  std::string scheme;  // SchemeSpec label
  Verdict verdict = Verdict::kRecovered;
  std::string detail;  // which check fired / what went silently wrong
  std::string events;  // injected fault log (capped)
  std::uint64_t faults_injected = 0;

  // --- Detection telemetry (DESIGN.md §16) --------------------------------
  // Latency counts demand accesses between the injection point (the crash
  // for fault classes; the adversary's mutation for runtime scenarios) and
  // the check that fired; 0 means recovery itself caught it. Meaningful
  // only when verdict == kDetected and something was actually injected.
  std::uint64_t detect_latency = 0;
  // Which layer fired: "recovery-hmac" (tamper checks: node/data HMACs,
  // parent verification), "recovery-linc" (replay checks: LInc sums,
  // cache-tree roots), "recovery" (other recovery-time detection),
  // "read" (demand-read integrity violation), "scrub" (patrol scrub),
  // "unsupported" (WB declaring itself unrecoverable). Empty if undetected.
  std::string detect_layer;

  // --- Blast radius (any verdict) -----------------------------------------
  std::uint64_t blast_lines = 0;     // single 64 B lines retired/quarantined
  std::uint64_t blast_subtrees = 0;  // quarantined subtree data ranges
  std::uint64_t blast_blocks = 0;    // resident data blocks left read-blocked

  // --- Re-entrant recovery telemetry (DESIGN.md §17) ----------------------
  std::uint64_t recovery_attempts = 1;  // attempts, summed over cycles
  double recovery_seconds = 0.0;        // modeled seconds, summed over cycles
  std::uint64_t resume_cursor = 0;      // last recovery's resume-cursor entries
  std::uint64_t cycles_run = 0;         // cycles started (< cycles: ended early)
  std::vector<std::uint64_t> attempts_per_cycle;  // one per completed recovery
  std::vector<double> recovery_seconds_per_cycle;
};

struct CampaignOptions {
  std::uint64_t trials = 100;
  std::uint64_t seed = 42;
  unsigned jobs = 1;
  std::vector<SchemeSpec> schemes;   // empty = campaign_schemes(kGeneral)
  std::vector<FaultClass> classes;   // empty = all_fault_classes()
  FaultTrialOptions workload;
  std::optional<std::uint64_t> only_trial;  // reproduce one trial index
};

struct CampaignResult {
  CampaignOptions options;  // with schemes/classes resolved to their defaults
  std::vector<TrialOutcome> outcomes;  // trial-major, scheme-minor order

  /// One (scheme, class) cell of the verdict matrix.
  VerdictCounts cell(const std::string& scheme, FaultClass cls) const;
  /// Every trial's verdict, across all cells.
  VerdictCounts totals() const;
  std::vector<const TrialOutcome*> silent_outcomes() const;

  /// Verdict matrix (+ silent trial details when verbose).
  void print(bool verbose = false, std::FILE* out = stdout) const;

  /// Machine-readable record: options, per-cell matrix, silent trials.
  std::string to_json() const;
};

/// The trial indices a campaign runs: just `only_trial` when set, else
/// 0..trials-1. A 0-trial campaign would report vacuous success, so it
/// throws std::invalid_argument (`what` names the campaign).
std::vector<std::uint64_t> campaign_trials(const char* what, std::uint64_t trials,
                                           std::optional<std::uint64_t> only_trial);

/// The campaign scheduler of the fault and attack campaigns: one
/// pre-assigned slot per (trial, scheme) cell, trial-major, filled by
/// run_cell(trial, spec) on `jobs` threads. Each cell is a pure function
/// of its indices, so the result is bit-identical for any job count.
template <class Outcome, class RunCell>
std::vector<Outcome> schedule_campaign(const std::vector<std::uint64_t>& trials,
                                       const std::vector<SchemeSpec>& schemes, unsigned jobs,
                                       const RunCell& run_cell) {
  std::vector<Outcome> out(trials.size() * schemes.size());
  ThreadPool::run_indexed(jobs, out.size(), [&](std::size_t idx) {
    out[idx] = run_cell(trials[idx / schemes.size()], schemes[idx % schemes.size()]);
  });
  return out;
}

/// Default scheme set per counter mode: the recoverable schemes the paper
/// compares (GC: ASIT/STAR/SCUE/Steins-GC; SC: Steins-SC).
std::vector<SchemeSpec> campaign_schemes(CounterMode mode);

/// Classify a recovery-time attack_detail into a detect_layer value:
/// "recovery-linc" for replay checks (LInc sums / cache-tree roots),
/// "recovery-hmac" for tamper checks (HMACs, parent verification), plain
/// "recovery" otherwise (DESIGN.md §III-H taxonomy).
std::string classify_detect_layer(const std::string& detail);

/// Hooks the adversary engine (fault/adversary.hpp) threads through a
/// trial. The campaign owns the workload/audit logic; the hooks own the
/// scenario logic. All callbacks may be empty; in a multi-cycle trial they
/// fire in every cycle.
struct TrialHooks {
  /// Midway through phase 1, immediately after an extra metadata flush
  /// (only flushed when this hook is set): the adversary's recording
  /// point. Everything the later checkpoint flush persists lands on the
  /// bus AFTER this snapshot, so rollback scenarios have genuinely stale
  /// persisted images to replay.
  std::function<void(SecureMemoryBase&)> mid_workload;
  /// After the checkpoint flush: snapshot persisted device state.
  std::function<void(SecureMemoryBase&)> after_checkpoint;
  /// During the phase-2 dirty burst, before access k. Return true once a
  /// runtime mutation has been applied (starts the detection-latency
  /// clock); further calls are suppressed after the first true.
  std::function<bool(SecureMemoryBase&, std::uint64_t access)> mid_burst;
  /// After the crash drain (and any injector media faults). Return true
  /// when a mutation was applied. The returned string, if nonempty, is
  /// logged as the trial's injected-event summary.
  std::function<bool(SecureMemoryBase&, std::string* events)> post_crash;
  /// Strict audit window: the trial's crash drains the queue intact, so
  /// every posted write is durable and the audit demands the exact latest
  /// version — a replay to an older committed version must be caught (or
  /// quarantined), never accepted. Leave false for fault campaigns, where
  /// dropped-but-unacknowledged persists are legal.
  bool strict_window = false;
};

/// Run one (scheme, trial) cell: `workload.cycles` crash/recover cycles on
/// one instance (DESIGN.md §16). Each cycle runs checked mixed traffic, a
/// checkpoint flush, a dirty burst, a faulted crash, guarded recovery and a
/// full audit that pins every block's audited version for the next cycle;
/// a write/read probe and the blast-radius count follow the last cycle.
/// The verdict is the worst across cycles; a terminal one (detected /
/// silent / unrecoverable) ends the trial early, as does a later cycle's
/// checkpoint flush refused with a typed error (salvaged). `hooks` thread an
/// adversary scenario through every cycle (the fault campaign passes none).
TrialOutcome run_fault_trial(const SchemeSpec& spec, FaultClass cls,
                             std::uint64_t campaign_seed, std::uint64_t trial,
                             const FaultTrialOptions& workload,
                             const TrialHooks* hooks = nullptr);

/// Run the whole matrix. Trial t draws fault class classes[t % size], so
/// every class gets an equal share of trials; `jobs` > 1 fans cells across
/// a thread pool with results bit-identical to the sequential run.
/// Throws std::invalid_argument for an empty campaign (trials == 0 without
/// an explicit --trial): an empty matrix would report vacuous success.
CampaignResult run_fault_campaign(const CampaignOptions& opts);

}  // namespace steins
