// Crash-recovery validation for the KV service: its adapter to the shared
// persist-boundary harness (kv/store_crash.hpp). The ordered persist
// protocol makes the recovered image equal the committed model EXACTLY;
// Steins/ASIT/STAR/SCUE must pass the diff, write-back must be *detected*
// as unrecoverable (RecoveryResult::supported == false).
#pragma once

#include "kv/store_crash.hpp"

namespace steins::kv {

struct KvCrashOptions : StoreCrashOptions {
  std::size_t slots = 64;  // store capacity (power of two)
};

using KvCrashReport = StoreCrashReport;

/// Run the validation once. `base_cfg` supplies the scheme configuration;
/// its NVM capacity must cover the layout implied by `opt.slots`.
KvCrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                      const KvCrashOptions& opt);

/// Sweep boundaries 0, stride, ..., total_persists (1 = exhaustive).
StoreCrashMatrix run_kv_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                     const KvCrashOptions& opt, std::uint64_t stride,
                                     unsigned jobs);

}  // namespace steins::kv
