// System configuration: the paper's Table I, expressed as data.
//
// All latencies the paper gives in nanoseconds are converted to CPU cycles
// at the configured clock (2 GHz default => 1 cycle = 0.5 ns).
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace steins {

/// Which leaf-node counter organization a scheme instance uses.
/// GC = general counter block (8 x 56-bit counters, covers 8 data blocks).
/// SC = split counter block (64-bit major + 64 x 6-bit minors, covers 64).
enum class CounterMode { kGeneral, kSplit };

/// Every System runs one functional crypto pipeline: AES-128 CTR pads
/// (crypto/otp.hpp) and SipHash-2-4 MACs (crypto/mac.hpp); crypto latency
/// is modeled from operation counts. This empty tag selects nothing. It
/// remains as SystemConfig::crypto only because the repository benchmark
/// (perfbench/src/main.cpp) still passes it to CmeEngine.
struct CryptoPipeline {};

/// SIT update policy (paper §II-C). The paper's schemes use lazy updates;
/// eager is kept for the ablation bench.
enum class UpdatePolicy { kLazy, kEager };

struct CpuConfig {
  unsigned cores = 8;              // Table I (modeled as a single trace stream)
  double freq_ghz = 2.0;           // 2 GHz
};

struct CacheConfig {
  std::size_t size_bytes = 0;
  unsigned ways = 0;
  std::size_t block_bytes = kBlockSize;
};

struct NvmConfig {
  std::uint64_t capacity_bytes = std::uint64_t{16} * 1024 * 1024 * 1024;  // 16 GB
  // PCM latency model (Table I), nanoseconds.
  double t_rcd_ns = 48.0;
  double t_cl_ns = 15.0;
  double t_cwd_ns = 13.0;
  double t_faw_ns = 50.0;
  double t_wtr_ns = 7.5;
  double t_wr_ns = 300.0;
  unsigned write_queue_entries = 64;
  // Energy model (typical PCM array numbers; only relative values matter
  // for the normalized figures).
  double read_energy_nj = 3.5;    // per 64 B array read
  double write_energy_nj = 22.0;  // per 64 B array write
  // Spare-line pool for retiring ECC-uncorrectable 64 B lines. A retired
  // line keeps accepting fresh writes; once the pool is exhausted further
  // dead lines fail fast and stay quarantined.
  std::size_t remap_pool_lines = 32;
  // --- Per-cell wear / endurance model (0 mean = disabled) ----------------
  // Every demand-path 64 B write increments the line's wear count. Each
  // line draws a Gaussian endurance limit (Irwin-Hall approximation, so the
  // draw is bit-deterministic across platforms) seeded by (wear_seed, line
  // address). Crossing wear_level_fraction of the limit triggers a
  // proactive wear-leveling migration to a spare from the remap pool (data
  // preserved, wear reset); once the pool is dry the line runs to failure
  // and further writes leave it with stuck cells — an uncorrectable ECC
  // fault that the quarantine/retirement machinery then handles.
  std::uint64_t endurance_mean_writes = 0;
  std::uint64_t endurance_sigma_writes = 0;
  std::uint64_t wear_seed = 1;
  double wear_level_fraction = 0.9;
};

/// Runtime fault-tolerance knobs (ECC read-retry, patrol scrub,
/// quarantine). Scrub is off by default so figure benches keep their
/// baseline traffic; fault campaigns and the scrub CLI turn it on.
struct FaultToleranceConfig {
  bool ecc_enabled = true;              // model per-line ECC on data reads
  unsigned max_read_retries = 3;        // bounded retry before declaring loss
  Cycle retry_backoff_cycles = 32;      // base backoff, doubled per retry
  std::uint64_t scrub_interval_accesses = 0;  // patrol epoch; 0 disables
  unsigned scrub_lines_per_epoch = 8;   // budget per patrol epoch
  bool scrub_verify_macs = true;        // patrol also MAC-verifies data lines
};

struct SecureConfig {
  CacheConfig metadata_cache{256 * 1024, 8, kBlockSize};  // 256 KB, 8-way
  unsigned hash_latency_cycles = 40;                      // Table I
  unsigned aes_latency_cycles = 40;                       // OTP pipeline depth
  std::size_t nv_buffer_bytes = 128;                      // parent-counter buffer
  std::size_t record_lines_cached = 16;                   // record lines in MC
  // Energy of on-chip crypto and SRAM ops (nJ); relative values only.
  double hash_energy_nj = 0.9;
  double aes_energy_nj = 0.6;
  double cache_access_energy_nj = 0.05;
  // Recovery read+verify cost per metadata block, ns (paper §IV-D).
  double recovery_read_ns = 100.0;
  FaultToleranceConfig ft;
};

struct SystemConfig {
  CpuConfig cpu;
  CacheConfig l1{32 * 1024, 2, kBlockSize};    // 32 KB, 2-way
  CacheConfig l2{512 * 1024, 8, kBlockSize};   // 512 KB, 8-way
  CacheConfig l3{2 * 1024 * 1024, 8, kBlockSize};  // 2 MB, 8-way
  NvmConfig nvm;
  SecureConfig secure;
  CounterMode counter_mode = CounterMode::kGeneral;
  CryptoPipeline crypto;  // empty tag; see CryptoPipeline
  UpdatePolicy update_policy = UpdatePolicy::kLazy;

  /// Convert nanoseconds to CPU cycles (rounded up; latencies never round
  /// down to zero).
  Cycle ns_to_cycles(double ns) const;

  /// Convert cycles back to seconds.
  double cycles_to_seconds(Cycle c) const;

  /// NVM array read latency (row activate + CAS), cycles.
  Cycle nvm_read_cycles() const { return ns_to_cycles(nvm.t_rcd_ns + nvm.t_cl_ns); }

  /// NVM array write occupancy (write recovery dominates for PCM), cycles.
  Cycle nvm_write_cycles() const { return ns_to_cycles(nvm.t_cwd_ns + nvm.t_wr_ns); }

  /// Human-readable dump (used by bench/tab1_config to reproduce Table I).
  std::string describe() const;
};

/// The paper's Table I configuration.
SystemConfig default_config();

}  // namespace steins
