// Full-system wiring: CPU model + L1/L2/L3 hierarchy + secure memory
// controller + NVM. Runs a trace and produces the statistics the paper's
// figures are built from. Also maintains a plaintext "ground truth" image
// of program memory and verifies every demand fill against it, so a run is
// simultaneously a correctness check of the whole encrypt/verify path.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cache/cache_hierarchy.hpp"
#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "fault/fault.hpp"
#include "secure/secure_memory.hpp"
#include "sim/cpu_model.hpp"
#include "trace/trace.hpp"

namespace steins {

struct RunStats {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t accesses = 0;
  ExecStats mem;
  double energy_nj = 0.0;
  double read_latency_cycles = 0.0;   // mean per data read
  double write_latency_cycles = 0.0;  // mean per data write
  double read_latency_p50 = 0.0;      // tail percentiles (cycles), from the
  double read_latency_p99 = 0.0;      // log-bucketed histogram
  double write_latency_p50 = 0.0;
  double write_latency_p99 = 0.0;
  double mcache_hit_rate = 0.0;

  double seconds(const SystemConfig& cfg) const { return cfg.cycles_to_seconds(cycles); }
};

class System {
 public:
  System(const SystemConfig& cfg, Scheme scheme);

  /// Run the whole trace; if warmup_accesses > 0, statistics are reset
  /// after that many accesses (the paper warms up before measuring).
  RunStats run(TraceSource& trace, std::uint64_t warmup_accesses = 0);

  /// Execute one access (examples drive the system directly with this).
  void step(const MemAccess& access);

  /// Read a block's plaintext through the secure path (stalls the core).
  Block load(Addr addr);
  /// Store a block's plaintext through the hierarchy.
  void store(Addr addr, const Block& data);
  /// clwb+fence: force the block out to the controller.
  void persist(Addr addr);

  SecureMemory& memory() { return *mem_; }
  CacheHierarchy& caches() { return hierarchy_; }
  CpuModel& cpu() { return cpu_; }
  const SystemConfig& config() const { return cfg_; }

  /// Crash-and-recover convenience used by examples/tests: drops CPU
  /// caches, crashes the controller, runs recovery. Recovery is itself a
  /// crash domain: when the armed injector fires a nested crash at a
  /// recovery persist boundary, the attempt is re-entered (bounded by the
  /// retry policy's max_recovery_attempts, with exponential persist-budget
  /// backoff for re-armed crashes).
  RecoveryResult crash_and_recover();

  /// As above, but runs `pre_recovery` between the crash drain (and any
  /// injector media faults) and recovery — the window where an adversary
  /// with media access mutates the durable image.
  RecoveryResult crash_and_recover(
      const std::function<void(SecureMemory&)>& pre_recovery);

  /// Arm the next crash with an injector (nullptr disarms): the write
  /// queue drains through it at crash() and its post-crash media faults
  /// apply between crash and recovery.
  void set_fault_injector(FaultInjector* injector);

  /// Bounded re-entry policy for crashed recoveries.
  void set_recovery_policy(const RecoveryRetryPolicy& policy) {
    recovery_policy_ = policy;
  }
  const RecoveryRetryPolicy& recovery_policy() const { return recovery_policy_; }

  /// After a successful crash_and_recover(): reconcile the plaintext ground
  /// truth with what actually survived in NVM, in place and in ascending
  /// address order. Blocks with a persistent image are reloaded through the
  /// secure path into their existing truth slots. Stores that never reached
  /// the controller (lost with the caches) and typed-unavailable
  /// (quarantined) blocks are zeroed in place: a zero slot reads exactly
  /// like a never-stored block, and a quarantined one still fails typed on
  /// its next load. This is what a rebooted application observes, and it is
  /// required before driving further loads after a crash that lost
  /// unpersisted stores. Must not be called when recovery failed (reads
  /// would throw IntegrityViolation).
  void resync_truth_after_crash();

  /// Collect statistics accumulated since the last reset.
  RunStats collect_stats();
  void reset_stats();

 private:
  /// Apply one access's memory-boundary effects (fills + writebacks).
  void apply_memory_ops(const MemoryOps& ops, bool is_write);

  /// Deterministic content for a store (ground truth + verification).
  void mutate_truth(Addr addr);

  SystemConfig cfg_;
  std::unique_ptr<SecureMemory> mem_;
  FaultInjector* fault_injector_ = nullptr;
  RecoveryRetryPolicy recovery_policy_;
  CacheHierarchy hierarchy_;
  CpuModel cpu_;
  FlatMap<Block> truth_;  // plaintext ground truth
  std::uint64_t store_seq_ = 0;
  std::uint64_t accesses_ = 0;
  Cycle stats_epoch_cycles_ = 0;
  std::uint64_t stats_epoch_insts_ = 0;
};

}  // namespace steins
