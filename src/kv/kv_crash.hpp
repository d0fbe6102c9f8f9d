// Crash-recovery validation for the KV service: run a deterministic op
// script against a fresh store, kill it at a chosen (or seeded-random)
// persist boundary, run the scheme's recovery, reopen the store over the
// surviving image, and diff it against the model of committed operations.
//
// The ordered persist protocol guarantees the recovered image equals the
// committed model EXACTLY: an in-flight operation's record write is
// invisible until its commit-word persist, and between operations the
// store holds no unpersisted dirty state. Schemes with persistent-security
// metadata (Steins/ASIT/STAR/SCUE) must pass the diff; write-back must be
// *detected* as unrecoverable (RecoveryResult::supported == false). The
// report scores itself with the shared CrashVerdict (fault/verdict.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "fault/adversary.hpp"
#include "fault/fault.hpp"
#include "fault/verdict.hpp"
#include "secure/secure_memory.hpp"

namespace steins::kv {

struct KvCrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};

  std::uint64_t ops = 64;            // scripted put/erase/get operations
  std::uint64_t keys = 16;           // key universe the script draws from
  std::size_t slots = 64;            // store capacity (power of two)
  std::size_t value_bytes = 24;      // payload size per value
  std::uint64_t seed = 1;            // script + boundary-choice seed
  std::uint64_t crash_at = kRandomBoundary;  // persist barrier index to die at

  // Optional hardware fault folded into the crash (kNone = clean crash).
  // The plan derives from (fault_seed, crash_at), so a report reproduces
  // from its own fields alone.
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;

  /// Nested recovery crash (DESIGN.md §17): crash the scheme's recovery at
  /// this 1-based persist boundary (0 = off) and re-enter it through the
  /// System's bounded retry loop; optionally re-arm on every retry.
  std::uint64_t recovery_crash_boundary = 0;
  bool recovery_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;

  // Optional adversarial mutation folded into the crash: the adversary
  // snapshots the persisted image (after a metadata flush) at the midpoint
  // persist barrier and applies the scenario's rollback/forgery/tear
  // between the crash drain and recovery. Runtime-only scenarios
  // (data-replay, wear-out) are no-ops here.
  std::optional<AdversaryScenario> adversary;
  std::uint64_t adversary_seed = 0;
};

struct KvCrashReport : CrashVerdict {
  std::uint64_t keys_unavailable = 0;  // committed keys behind typed errors
  std::uint64_t total_persists = 0; // barriers in the full script
  std::uint64_t crash_at = 0;       // barrier the run was killed before
  std::uint64_t committed_keys = 0; // model size at the crash point
  bool adversary_injected = false;  // the scenario's mutation actually landed
  std::string adversary_events;     // what the adversary mutated
};

/// Run the validation once. `base_cfg` supplies the scheme configuration;
/// its NVM capacity must cover the layout implied by `opt.slots`.
KvCrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                      const KvCrashOptions& opt);

}  // namespace steins::kv
