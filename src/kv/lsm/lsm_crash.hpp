// Crash-recovery validation for the LSM engine, mirroring kv/kv_crash.hpp:
// run a deterministic op script against a fresh store, kill it at a chosen
// persist boundary, run the scheme's recovery, reopen the engine over the
// surviving image, and diff it against the model of *committed* operations.
//
// The committed model is exact: an operation commits at its WAL record's
// last persist barrier (LsmStore's commit hook fires precisely there), and
// flushes/compactions/manifest installs never change committed contents —
// they only restructure it. So for every crash boundary, recovery must
// reproduce the commit-hook model bit for bit (or, under an injected
// fault, fail *detectably* / salvage with typed unavailability).
//
// The boundary sweep in run_lsm_crash_matrix covers every stage of the
// engine's persist protocol — "wal", "flush-data", "flush-footer",
// "compact-data", "compact-footer", "manifest-data", "manifest-commit" —
// which is exactly the fault-campaign hook-point list from DESIGN.md §15:
// torn WAL tail, crash mid-flush, crash mid-compaction, manifest swap.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "fault/adversary.hpp"
#include "fault/fault.hpp"
#include "fault/verdict.hpp"
#include "kv/lsm/lsm_store.hpp"
#include "secure/secure_memory.hpp"

namespace steins::lsm {

struct LsmCrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};

  std::uint64_t ops = 96;        // scripted put/erase/get operations
  std::uint64_t keys = 16;       // key universe the script draws from
  std::size_t value_bytes = 24;  // payload size per value
  std::uint64_t seed = 1;        // script + boundary-choice seed
  std::uint64_t crash_at = kRandomBoundary;  // persist barrier index to die at

  // Optional hardware fault folded into the crash (kNone = clean crash),
  // as in the KV harness: the plan derives from (fault_seed, crash_at).
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;

  /// Nested recovery crash (DESIGN.md §17): crash the scheme's recovery at
  /// this 1-based persist boundary (0 = off) and re-enter it through the
  /// System's bounded retry loop; optionally re-arm on every retry.
  std::uint64_t recovery_crash_boundary = 0;
  bool recovery_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;

  /// Overwrite both manifest replicas with garbage after the crash (the
  /// "manifest loss" hook point). Recovery must *detect* this (open()
  /// returning kIntegrity), never serve from it.
  bool manifest_loss = false;

  // Optional adversarial mutation folded into the crash, as in the KV
  // harness: snapshot the persisted image (after a metadata flush) at the
  // midpoint persist barrier, apply the scenario's rollback/forgery/tear
  // between the crash drain and recovery. Runtime-only scenarios
  // (data-replay, wear-out) are no-ops here.
  std::optional<AdversaryScenario> adversary;
  std::uint64_t adversary_seed = 0;

  /// Small geometry + aggressive flush/compact thresholds so a short
  /// script exercises every persist stage.
  LsmLayout layout{Addr{1} << 20, /*manifest_blocks=*/4, /*wal_blocks=*/64,
                   /*arena_blocks=*/2048};
  LsmConfig engine{/*memtable_limit_bytes=*/256, /*l0_compact_trigger=*/2,
                   /*index_every=*/4, kMaxLsmValueBytes,
                   /*verify_runs_on_open=*/true, /*merge_jobs=*/1};
};

/// Scored with the shared CrashVerdict, exactly as KvCrashReport.
struct LsmCrashReport : CrashVerdict {
  std::uint64_t keys_unavailable = 0;
  std::uint64_t total_persists = 0;
  std::uint64_t crash_at = 0;
  std::string crash_stage;          // persist stage of the fatal boundary
  std::uint64_t committed_keys = 0;
  bool adversary_injected = false;  // the scenario's mutation actually landed
  std::string adversary_events;     // what the adversary mutated
  bool wal_torn = false;            // reopen found a torn WAL tail
  std::uint64_t flushes = 0;        // engine flushes before the crash
  std::uint64_t compactions = 0;
};

/// Run the validation once at opt.crash_at (or a seeded-random boundary).
LsmCrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                        const LsmCrashOptions& opt);

struct LsmCrashMatrix {
  VerdictCounts counts;  // one per trial; must stay clean()
  std::uint64_t total_persists = 0;
  /// Crash boundaries visited per persist stage ("wal", "flush-data", ...)
  /// — proves the sweep actually covered every protocol step.
  std::map<std::string, std::uint64_t> stage_trials;
  /// Every failing (silent or unrecoverable) boundary and its detail.
  std::vector<std::pair<std::uint64_t, std::string>> failures;
};

/// Sweep crash boundaries 0, stride, 2*stride, ... total_persists (one dry
/// run, then one crashed trial per boundary; `jobs` trials run in parallel
/// with a deterministic merge). stride 1 is the exhaustive campaign.
LsmCrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                    const LsmCrashOptions& opt, std::uint64_t stride,
                                    unsigned jobs);

}  // namespace steins::lsm
