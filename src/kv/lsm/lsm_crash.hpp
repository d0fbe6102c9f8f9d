// Crash-recovery validation for the LSM engine: its adapter to the shared
// persist-boundary harness (kv/store_crash.hpp). An operation commits at
// its WAL record's last barrier; flushes, compactions and manifest
// installs only restructure committed contents. So at every boundary —
// every stage of the persist protocol (DESIGN.md §15) — recovery must
// reproduce the commit-hook model exactly, or fail *detectably* / salvage
// with typed unavailability under an injected fault.
#pragma once

#include "kv/lsm/lsm_store.hpp"
#include "kv/store_crash.hpp"

namespace steins::lsm {

struct LsmCrashOptions : kv::StoreCrashOptions {
  LsmCrashOptions() { ops = 96; }

  /// Garble both manifest replicas after the crash ("manifest loss"):
  /// open() must detect it, never serve from it.
  bool manifest_loss = false;

  /// Small geometry + aggressive flush/compact thresholds so a short
  /// script exercises every persist stage.
  LsmLayout layout{.manifest_blocks = 4, .wal_blocks = 64, .arena_blocks = 2048};
  LsmConfig engine{.memtable_limit_bytes = 256, .l0_compact_trigger = 2, .index_every = 4};
};

struct LsmCrashReport : kv::StoreCrashReport {
  bool wal_torn = false;        // reopen found a torn WAL tail
  std::uint64_t flushes = 0;    // engine flushes before the crash
  std::uint64_t compactions = 0;
};

using LsmCrashMatrix = kv::StoreCrashMatrix;

/// Run the validation once at opt.crash_at (or a seeded-random boundary).
LsmCrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                        const LsmCrashOptions& opt);

/// Sweep boundaries 0, stride, ..., total_persists (1 = exhaustive).
LsmCrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                    const LsmCrashOptions& opt, std::uint64_t stride,
                                    unsigned jobs);

}  // namespace steins::lsm
