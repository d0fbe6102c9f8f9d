// Bonsai Merkle Tree baseline (paper §II-C, Rogers et al. MICRO'07).
//
// The BMT protects the CME counter blocks with a hash tree: each internal
// node holds 8 x 8-byte hashes of its children, recursively up to an
// on-chip root. Unlike SIT, a parent hash is computed OVER the child's
// content, so updates along a branch are strictly sequential — the
// performance disadvantage the paper cites as motivation for SIT.
//
// Runtime: counter blocks and hash nodes share the metadata cache; a data
// write updates the counter block and recomputes the hash branch up to the
// root (sequential hash latency per level). The root register is therefore
// always current.
//
// Recovery: counters are recovered Osiris-style (stop-loss bounded trial
// against data HMACs), then the whole hash tree is rebuilt bottom-up and
// the recomputed root compared with the register — a full-memory scan,
// which is why BMT/SCUE-style reconstruction is hour-scale for TB NVM
// (paper §I, §II-D).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "nvm/nvm_device.hpp"
#include "nvm/write_queue.hpp"
#include "secure/cme.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

class BmtMemory final : public SecureMemory {
 public:
  explicit BmtMemory(const SystemConfig& cfg, std::uint64_t key_seed = 0xb05a1b05a1ULL);

  Cycle read_block(Addr addr, Cycle now, Block* out) override;
  Cycle write_block(Addr addr, const Block& data, Cycle now) override;
  void crash() override;
  RecoveryResult recover() override;

  /// BMT is a standalone SecureMemory (not a SecureMemoryBase), so it
  /// carries its own nested-crash wiring: the injector sees every rebuild
  /// poke as a persist boundary and the crash drain runs through it.
  void set_fault_injector(FaultInjector* injector) override {
    injector_ = injector;
    channel_.set_crash_fault_hook(injector);
  }
  void note_recovery_crash(std::uint64_t boundary, const char* stage) override;
  std::vector<RecoveryAttempt> drain_attempt_log() override {
    return std::move(attempt_log_);
  }

  ExecStats& stats() override { return stats_; }
  const ExecStats& stats() const override { return stats_; }
  const SystemConfig& config() const override { return cfg_; }
  NvmDevice& device() override { return dev_; }
  const SitGeometry& geometry() const override { return geo_; }
  const CacheStats& metadata_cache_stats() const override { return mcache_.stats(); }

  /// Tree height including the on-chip root.
  unsigned height() const { return geo_.height(); }

  NvmChannel& channel() { return channel_; }

  /// Stop-loss period bounding Osiris-style counter recovery.
  static constexpr std::uint64_t kStopLoss = 64;

 private:
  struct CachedBlock {
    Block data{};   // counter block or hash node image
    bool valid = false;
  };

  /// Counter region uses the same layout as a GC SIT level 0; hash levels
  /// reuse SitGeometry's internal levels (one 64 B node per 8 children).
  Addr counter_addr(std::uint64_t leaf) const { return geo_.node_addr({0, leaf}); }
  Addr hash_addr(unsigned level, std::uint64_t index) const {
    return geo_.node_addr({level, index});
  }

  /// Fetch a metadata block (counter or hash node) through the cache.
  /// Verification: hash the block and compare with the parent's stored
  /// hash slot (recursing up to the root register).
  Block fetch_meta(NodeId id, Cycle& now, bool* from_cache = nullptr);

  /// Recompute the hash branch above a modified block, sequentially, in
  /// the cache, ending at the root register (classic BMT update).
  void update_branch(NodeId id, const Block& leaf_image, Cycle& now);

  std::uint64_t hash_of(const Block& image, Addr addr) const;

  /// Verified expected hash of `id` (parent slot or root register).
  std::uint64_t expected_hash(NodeId id, Cycle& now);

  void charge_hash(Cycle& now) {
    now += cfg_.secure.hash_latency_cycles;
    ++stats_.hash_ops;
  }

  /// Cross a recovery persist boundary (throw-before-poke).
  void recovery_persist_boundary(const char* stage);
  /// The rebuild proper; recover() wraps it to fold attempt telemetry.
  void recover_impl(RecoveryResult& result);
  double recovery_attempt_seconds() const;

  SystemConfig cfg_;
  SitGeometry geo_;  // GC-mode geometry: leaves = counter blocks
  NvmDevice dev_;
  NvmChannel channel_;
  CmeEngine cme_;
  SetAssocCache<CachedBlock> mcache_;
  std::vector<std::uint64_t> root_;  // on-chip root hashes (per top node)
  ExecStats stats_;
  Cycle mc_free_at_ = 0;  // read-engine serialization
  Cycle wr_free_at_ = 0;  // write-engine serialization

  // Nested-crash state (re-entrant recovery).
  FaultInjector* injector_ = nullptr;
  std::vector<RecoveryAttempt> attempt_log_;
  bool recovery_resume_ = false;
  std::uint64_t recovery_reads_ = 0;
  std::uint64_t recovery_writes_ = 0;
};

}  // namespace steins
