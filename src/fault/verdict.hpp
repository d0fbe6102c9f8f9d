// Crash verdicts: the one outcome taxonomy every crash harness scores
// against — the fault and attack campaigns (fault/campaign.*,
// fault/adversary.*), the multi-cycle recovery storm, the KV/LSM store
// crash harness (kv/store_crash.*) and the serving crash validation
// (kv/serving.*). DESIGN.md "Crash verdicts" is the prose version.
//
//   recovered              recovery ran clean and the audit found exactly
//                          committed state: for the campaigns, every block
//                          an authentic committed version no older than the
//                          checkpoint (the last full flush) and no newer
//                          than the latest write; for the stores, the
//                          committed model bit for bit;
//   recovered-after-retry  recovery itself crashed at an armed persist
//                          boundary, was re-entered, and converged to a
//                          clean audit (>= 2 attempts);
//   salvaged               recovery completed in degraded mode: unverifiable
//                          lines/subtrees were quarantined, everything still
//                          served read back authentic, and reads of
//                          quarantined data failed with a *typed*
//                          unavailable error (never wrong plaintext);
//   detected               an integrity check caught an injected fault — at
//                          recovery, on reopen, or on a later read — or the
//                          scheme declared itself unrecoverable (WB);
//   silent-corruption      wrong plaintext served without any check firing,
//                          a rollback past the checkpoint, an internal
//                          recovery error, or an unexpected crash of the
//                          recovery code. Always a real bug;
//   recovery-crash-unrecoverable
//                          the bounded retry budget ran out with the machine
//                          still down — an availability failure.
//
// A run passes unless it is silent or unrecoverable.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/status.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

enum class Verdict {
  kRecovered,
  kRecoveredAfterRetry,
  kSalvaged,
  kDetected,
  kSilent,
  kUnrecoverable,
};
inline constexpr std::size_t kVerdictCount = 6;

/// "recovered", "recovered-after-retry", "salvaged", "detected",
/// "silent-corruption", "recovery-crash-unrecoverable".
const char* verdict_name(Verdict v);

/// The verdict fields every crash report carries. The KV, LSM and serving
/// reports derive from it and add only their own telemetry.
struct CrashVerdict {
  bool recovery_supported = false;  // scheme claims post-crash recovery
  bool recovery_ok = false;         // recovery ran clean (no attack flagged)
  bool verified = false;            // recovered image == committed model
  bool salvaged = false;            // recovery degraded but attack-free
  bool degraded_verified = false;   // every readable key matched the model
  std::uint64_t recovery_attempts = 1;  // re-entries the recovery took
  bool recovery_gave_up = false;        // retry budget exhausted (never OK)
  bool faulted = false;             // a fault/adversary was armed at the crash
  bool fault_detected = false;      // an integrity check caught the fault
  double recovery_seconds = 0.0;    // modeled recovery time
  std::string detail;               // first mismatch / failure description

  /// Precedence: a give-up is unrecoverable whatever else happened; WB is
  /// detected when it reports recovery unsupported and silent otherwise;
  /// other schemes recover (after retry when re-entered), salvage with
  /// every readable key verified, or detect an *injected* fault. Anything
  /// else is silent.
  Verdict verdict(Scheme scheme) const;
  /// Neither silent nor unrecoverable.
  bool pass(Scheme scheme) const;
};

/// Fold a finished recovery into `v`: the telemetry fields always, then the
/// first of these that holds settles the verdict (returns true) —
///   1. the retry budget ran out           -> unrecoverable;
///   2. the scheme reports no recovery     -> detected for WB, else silent;
///   3. an internal error Status           -> silent;
///   4. recovery flagged an attack         -> detected when v->faulted,
///                                            else silent.
/// Otherwise returns false with v->salvaged = r.degraded(), and the caller
/// audits the recovered image. Set v->faulted before calling.
bool classify_recovery(const RecoveryResult& r, CrashVerdict* v);

/// Verdict tally for one matrix cell (or a whole campaign).
struct VerdictCounts {
  std::array<std::uint64_t, kVerdictCount> n{};

  void add(Verdict v) { ++n[static_cast<std::size_t>(v)]; }
  VerdictCounts& operator+=(const VerdictCounts& o) {
    for (std::size_t i = 0; i < kVerdictCount; ++i) n[i] += o.n[i];
    return *this;
  }
  std::uint64_t operator[](Verdict v) const { return n[static_cast<std::size_t>(v)]; }
  std::uint64_t total() const;
  /// recovered + recovered-after-retry: the audit came out clean.
  std::uint64_t converged() const {
    return (*this)[Verdict::kRecovered] + (*this)[Verdict::kRecoveredAfterRetry];
  }
  /// silent + unrecoverable: the outcomes a pass forbids.
  std::uint64_t failed() const {
    return (*this)[Verdict::kSilent] + (*this)[Verdict::kUnrecoverable];
  }
  bool clean() const { return failed() == 0; }
};

/// The salvage diff's per-key rule of the store crash harness:
/// every committed key in `model` must read back exactly through
/// store.try_get or fail with a *typed* unavailable error (counted into
/// *unavailable). Returns false with *detail set at the first untyped
/// failure or silent divergence.
template <class Store>
bool salvage_committed_keys(Store& store, const std::map<std::uint64_t, std::string>& model,
                            std::uint64_t* unavailable, std::string* detail) {
  for (const auto& [key, value] : model) {
    const auto got = store.try_get(key);
    if (!got.has_value()) {
      if (!is_unavailable(got.status().code())) {
        *detail = "salvaged get of key " + std::to_string(key) +
                  " failed untyped: " + got.status().to_string();
        return false;
      }
      ++*unavailable;
      continue;
    }
    if (!got.value().has_value()) {
      *detail = "committed key " + std::to_string(key) + " silently missing after salvage";
      return false;
    }
    if (*got.value() != value) {
      *detail = "committed key " + std::to_string(key) + " has wrong value after salvage";
      return false;
    }
  }
  return true;
}

}  // namespace steins
