// SecureMemory: the secure NVM memory-controller model.
//
// SecureMemoryBase implements everything the four schemes share — the CME
// data path, the SIT with lazy updates, the metadata cache, recursive
// fetch-and-verify, timing/energy accounting, and crash machinery — and
// exposes virtual hooks where the schemes differ:
//
//   * flush_dirty_node(): how a dirty node is persisted (self-increment
//     parents for WB/ASIT/STAR; generated counters + NV buffer for Steins)
//   * on_node_modified/dirtied/cleaned(): tracking structures (ASIT shadow
//     table + cache-tree; STAR bitmap + cache-tree; Steins offset records)
//   * crash()/recover(): per-scheme recovery procedure.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "nvm/nvm_device.hpp"
#include "nvm/write_queue.hpp"
#include "secure/cme.hpp"
#include "secure/metadata_cache.hpp"
#include "secure/resilience.hpp"
#include "sit/geometry.hpp"
#include "sit/node.hpp"

namespace steins {

class FaultInjector;

/// Thrown when runtime integrity verification fails (tampering detected).
class IntegrityViolation : public std::runtime_error {
 public:
  explicit IntegrityViolation(const std::string& what) : std::runtime_error(what) {}
};

/// Telemetry for one recovery attempt. Under nested-crash injection a
/// recovery can be entered several times: aborted attempts (crashed=true)
/// record where they died; the final converging attempt closes the log.
struct RecoveryAttempt {
  std::uint64_t nvm_reads = 0;
  std::uint64_t nvm_writes = 0;
  double seconds = 0.0;             // modeled time of this attempt alone
  bool crashed = false;             // ended in a nested crash
  std::uint64_t crash_boundary = 0; // 1-based persist boundary it died at
  std::string crash_stage;          // boundary label ("write", "qmap", ...)
  std::uint64_t resume_cursor = 0;  // persisted resume-cursor position
};

/// Outcome of SecureMemory::recover().
///
/// Recovery never throws: every path — clean rebuild, detected attack, lost
/// media — comes back as a report. `status` is non-ok only when recovery
/// itself failed internally (a bug, not a property of the device). A report
/// can be degraded() without an attack: salvage mode quarantined subtrees
/// whose metadata was unrecoverable and kept everything else serviceable.
struct RecoveryReport {
  bool supported = true;          // WB reports false
  bool attack_detected = false;
  std::string attack_detail;      // which check fired, at which level
  int attacked_level = -1;
  Status status;                  // internal recovery failure, if any
  std::uint64_t nodes_recovered = 0;
  std::uint64_t blocks_salvaged = 0;     // resident data blocks still served
  std::uint64_t blocks_quarantined = 0;  // resident data blocks now blocked
  std::uint64_t subtrees_quarantined = 0;
  std::uint64_t lines_quarantined = 0;   // single retired lines
  bool tracking_degraded = false;  // dirty-set tracking partially lost
  std::vector<unsigned> linc_unverified;  // Steins levels left unchecked
  std::vector<std::pair<Addr, Addr>> quarantined_ranges;  // data byte ranges
  std::uint64_t nvm_reads = 0;    // metadata/data blocks fetched (all attempts)
  std::uint64_t nvm_writes = 0;   // blocks written back during recovery
  double seconds = 0.0;           // modeled recovery time (all attempts)

  /// Per-attempt log under nested-crash injection: aborted attempts first,
  /// the converging one last. Single-attempt recoveries log one entry.
  std::vector<RecoveryAttempt> attempts;
  /// Nested crashes exhausted the retry budget; status carries the detail.
  bool recovery_gave_up = false;
  /// Final persisted resume-cursor position (0 = no cursor / not used).
  std::uint64_t resume_cursor = 0;

  std::uint64_t attempt_count() const {
    return attempts.empty() ? 1 : attempts.size();
  }

  bool degraded() const {
    return blocks_quarantined > 0 || subtrees_quarantined > 0 ||
           lines_quarantined > 0 || !quarantined_ranges.empty() ||
           tracking_degraded || !linc_unverified.empty();
  }

  /// "N blocks salvaged, M quarantined (K subtrees)" — for logs/CLIs.
  std::string summary() const;

  bool ok() const {
    return supported && !attack_detected && status.ok() && !degraded();
  }
};

using RecoveryResult = RecoveryReport;

/// Aggregated runtime statistics for one simulation run.
struct ExecStats {
  LatencyAccumulator read_latency;   // data read: arrival -> verified data
  LatencyAccumulator write_latency;  // data write: arrival -> NVM completion
  std::uint64_t data_reads = 0;      // NVM data-block reads
  std::uint64_t data_writes = 0;
  std::uint64_t meta_reads = 0;      // SIT node reads
  std::uint64_t meta_writes = 0;
  std::uint64_t aux_reads = 0;       // shadow/bitmap region reads
  std::uint64_t aux_writes = 0;      // full-line shadow/bitmap writes
  std::uint64_t aux_write_bytes = 0; // partial (byte-addressable) writes
  std::uint64_t hash_ops = 0;
  std::uint64_t aes_ops = 0;
  std::uint64_t mcache_accesses = 0;
  std::uint64_t reencryptions = 0;   // split-counter overflow re-encryptions

  std::uint64_t nvm_reads() const { return data_reads + meta_reads + aux_reads; }
  std::uint64_t nvm_writes() const {
    return data_writes + meta_writes + aux_writes + aux_write_bytes / kBlockSize;
  }

  /// Total modeled energy (nJ) given the configured per-op costs.
  double energy_nj(const SystemConfig& cfg) const;

  void reset() { *this = ExecStats{}; }
};

/// Scheme identifiers (paper §IV; SCUE is the §II-D whole-tree-rebuild
/// baseline, general-counter mode only).
enum class Scheme { kWriteBack, kAnubis, kStar, kSteins, kScue };

std::string scheme_name(Scheme s, CounterMode mode);

class SecureMemory {
 public:
  virtual ~SecureMemory() = default;

  /// Data-block read arriving at the controller at cycle `now`.
  /// Returns the cycle at which verified plaintext is available.
  virtual Cycle read_block(Addr addr, Cycle now, Block* out) = 0;

  /// Data-block write (dirty LLC eviction) arriving at `now`. Returns the
  /// cycle at which the controller has accepted the write (posted).
  virtual Cycle write_block(Addr addr, const Block& data, Cycle now) = 0;

  /// Simulated power loss: volatile state is dropped, the ADR domain and
  /// write queue drain to NVM.
  virtual void crash() = 0;

  /// Rebuild security metadata after crash() per the scheme's procedure.
  /// Never throws: failures are reported in the returned RecoveryReport.
  virtual RecoveryReport recover() = 0;

  virtual ExecStats& stats() = 0;
  virtual const ExecStats& stats() const = 0;
  virtual const SystemConfig& config() const = 0;
  virtual NvmDevice& device() = 0;
  virtual const SitGeometry& geometry() const = 0;
  virtual const CacheStats& metadata_cache_stats() const = 0;

  /// Install (or clear, with nullptr) a fault injector: the next crash()
  /// drains the write queue through it instead of draining intact, and
  /// recovery persist boundaries report to it (nested-crash injection).
  /// Runtime faults apply only at crash; the demand path is unaffected.
  virtual void set_fault_injector(FaultInjector* injector) { (void)injector; }

  /// A nested crash (RecoveryCrash) aborted the in-progress recovery
  /// attempt at `boundary`. Implementations log the aborted attempt's
  /// telemetry and leave the object ready for crash() + recover()
  /// re-entry. Default: no-op (schemes without recovery state).
  virtual void note_recovery_crash(std::uint64_t boundary, const char* stage) {
    (void)boundary;
    (void)stage;
  }

  /// Attempt log accumulated across note_recovery_crash calls; the retry
  /// loop drains it when recovery is abandoned (a converging recover()
  /// folds the log into its report instead).
  virtual std::vector<RecoveryAttempt> drain_attempt_log() { return {}; }

  /// Host-side prefetch hint for an access to `addr` a few trace entries
  /// ahead: pulls the controller tables the access will probe (metadata
  /// cache set, device-store slot) toward the host cache. No simulated
  /// effect — results are bit-identical with or without the hint.
  virtual void prefetch_hint(Addr addr) const { (void)addr; }
};

class SecureMemoryBase : public SecureMemory {
 public:
  SecureMemoryBase(const SystemConfig& cfg, std::uint64_t key_seed = 0x57e145c0de5eedULL);

  // The channel holds references into this object; it must stay put.
  SecureMemoryBase(const SecureMemoryBase&) = delete;
  SecureMemoryBase& operator=(const SecureMemoryBase&) = delete;

  Cycle read_block(Addr addr, Cycle now, Block* out) override;
  Cycle write_block(Addr addr, const Block& data, Cycle now) override;

  void crash() override;

  ExecStats& stats() override { return stats_; }
  const ExecStats& stats() const override { return stats_; }
  const SystemConfig& config() const override { return cfg_; }
  NvmDevice& device() override { return dev_; }
  const SitGeometry& geometry() const override { return geo_; }

  const CacheStats& metadata_cache_stats() const override { return mcache_.stats(); }

  void set_fault_injector(FaultInjector* injector) override {
    injector_ = injector;
    channel_.set_crash_fault_hook(injector);
  }

  void note_recovery_crash(std::uint64_t boundary, const char* stage) override;
  std::vector<RecoveryAttempt> drain_attempt_log() override {
    return std::move(attempt_log_);
  }

  void prefetch_hint(Addr addr) const final {
    // The access will probe the data line plus the leaf covering addr's
    // data block in the metadata cache; a leaf miss walks toward the root
    // and reads node images from the device store. Hint the first few
    // levels of that walk — deeper ancestors are shared widely enough to
    // stay host-cached on their own.
    const std::uint64_t block = addr / kBlockSize;
    NodeId id{0, block / geo_.leaf_coverage()};
    for (unsigned level = 0; level < 3 && level < geo_.num_levels(); ++level) {
      const Addr node_addr = geo_.node_addr(id);
      mcache_.prefetch(node_addr);
      dev_.prefetch(node_addr);
      id = geo_.parent_of(id);
    }
    dev_.prefetch(addr);
  }

  NvmChannel& channel() { return channel_; }
  MetadataCache& metadata_cache() { return mcache_; }
  const std::vector<std::uint64_t>& root_counters() const { return root_; }
  const CmeEngine& cme() const { return cme_; }

  const FtStats& ft_stats() const { return ft_stats_; }
  const QuarantineMap& quarantine() const { return qmap_; }

  /// Run one patrol-scrub epoch immediately (the steins_scrub CLI drives
  /// this directly; the runtime triggers it every scrub_interval_accesses).
  void scrub_epoch(Cycle& now);

  /// Scheme hook (public for introspection/auditing): a pending, not yet
  /// applied parent counter for `id`, if any. Steins answers from its NV
  /// parent buffer so verification never sees a stale parent slot; the
  /// buffer lives on-chip, so this costs no memory access.
  virtual std::optional<std::uint64_t> pending_parent_counter(NodeId id) const;

  /// Force every queued write to NVM and every dirty metadata node out of
  /// the cache (used by tests to reach a fully-persistent state).
  void flush_all_metadata();

  /// Snapshot of a node's current (possibly cached-dirty) counters; used by
  /// tests to compare pre-crash and post-recovery states.
  std::optional<SitNode> current_node_state(NodeId id) const;

 protected:
  struct FetchResult {
    MetadataLine* line;
    Cycle ready;
  };

  /// Fetch-and-verify a node into the metadata cache (paper §II-C):
  /// recursive parent fetches on miss, HMAC check against the parent
  /// counter, LRU insertion with dirty-victim flush.
  FetchResult fetch_node(NodeId id, Cycle now);

  /// Persist one dirty node's payload to NVM, updating its parent counter
  /// per the scheme (self-increment vs. generated). Returns the cycle after
  /// the metadata operations on the current path.
  virtual Cycle persist_node(SitNode& node, Cycle now) = 0;

  /// A cached node's counters changed.
  virtual void on_node_modified(NodeId id, Cycle& now);
  /// A cached node transitioned clean -> dirty.
  virtual void on_node_dirtied(NodeId id, Cycle& now);
  /// A cached node transitioned dirty -> clean (flushed or evicted).
  virtual void on_node_cleaned(NodeId id, Cycle& now);

  /// Hook before serving a data read (Steins drains the NV buffer here).
  virtual void before_read(Cycle& now);

  /// Hook after a data block write (STAR stashes leaf-counter LSBs in the
  /// block's spare ECC bits here).
  virtual void on_data_written(Addr addr, std::uint64_t counter, Cycle& now);

  /// Increment the leaf counter covering a data write; returns the
  /// encryption counter to use and handles split-counter overflow
  /// (re-encryption of covered blocks). `pv_before/pv_after` report the
  /// node's Eq-1/Eq-2 parent value around the increment (for LIncs).
  struct CounterBump {
    std::uint64_t enc_counter = 0;
    std::uint64_t aux = 0;  // MAC aux input (leaf major for Steins-SC)
    std::uint64_t pv_before = 0;
    std::uint64_t pv_after = 0;
    bool overflowed = false;
  };
  virtual CounterBump bump_leaf_counter(MetadataLine& leaf, std::size_t slot, Cycle& now);

  /// Encryption counter currently stored for a data block (for reads).
  std::uint64_t leaf_enc_counter(const SitNode& leaf, std::size_t slot,
                                 std::uint64_t* aux) const;

  /// Parent counter used to verify `id`'s persistent image: the counter in
  /// the cached parent node (fetching it if needed) or the root register.
  std::uint64_t verify_parent_counter(NodeId id, Cycle& now);

  /// Self-increment parent-update flush shared by WB/ASIT/STAR
  /// (paper §II-C classic SIT semantics). `parent_ctr_out`, if given,
  /// receives the post-increment parent counter (STAR stores its LSBs).
  Cycle persist_with_self_increment(SitNode& node, Cycle now,
                                    std::uint64_t* parent_ctr_out = nullptr);

  /// Persist a cached node without evicting it (write-through): the node
  /// stays cached but becomes clean.
  Cycle write_through_node(MetadataLine& line, Cycle now);

  /// Persist a node that is no longer (or no longer reliably) in the cache.
  /// While the flush is in flight, the node is registered so that recursive
  /// parent fetches triggered by the flush serve the live copy instead of
  /// re-reading a stale image from NVM (see fetch_node).
  Cycle persist_detached(SitNode& node, Cycle now);

  /// Fire on_node_cleaned for a just-persisted node — unless the flush
  /// chain re-materialized it as a dirty cached node (the inflight path),
  /// in which case it is still dirty and must stay tracked.
  void finish_clean(NodeId id, Cycle& now);

  /// Re-encrypt the data blocks covered by a split leaf after a minor
  /// overflow (their encryption counters changed wholesale). Charges
  /// reads+writes; `skip_slot` is the block the caller is about to write.
  void reencrypt_covered_blocks(const SitNode& before, const SitNode& after,
                                std::size_t skip_slot, Cycle& now);

  /// True if a block has ever been written (device or write queue).
  bool block_exists(Addr addr) const {
    return dev_.contains(addr) || channel_.queued(addr);
  }

  /// Charge one hash (MAC) computation on the current path.
  void charge_hash(Cycle& now) {
    now += cfg_.secure.hash_latency_cycles;
    ++stats_.hash_ops;
  }
  void charge_aes() { ++stats_.aes_ops; }

  /// Charge tracking-structure work (cache-tree hashes, synchronous shadow
  /// persists) to the WRITE-latency side channel: it burdens metadata
  /// modifications (paper Figs. 10) without sitting on the read path.
  void charge_tracking(Cycle cycles, bool is_hash = false) {
    tracking_penalty_ += cycles;
    if (is_hash) ++stats_.hash_ops;
  }

  bool leaf_is_split() const { return cfg_.counter_mode == CounterMode::kSplit; }

  // --- Runtime fault tolerance -------------------------------------------

  /// Data read with bounded ECC retry/backoff. Throws StatusError
  /// (kUncorrectable) after quarantining the line when ECC gives up.
  Cycle resilient_data_read(Addr addr, Cycle now, Block* out);

  /// ECC retry for a SIT node image just read in fetch_node. Quarantines
  /// the node's whole data subtree and throws StatusError on a dead line.
  Cycle resolve_node_ecc(NodeId id, Addr addr, Cycle now, Block* img);

  /// Throw StatusError(kQuarantined) if the map blocks the access.
  void check_read_allowed(Addr addr);
  void check_write_allowed(Addr addr);

  /// Retire a dead 64 B line: remap from the spare pool if one is left,
  /// record it in the quarantine map, persist the map.
  void quarantine_data_line(Addr addr, QuarantineReason reason);

  /// Quarantine the data range covered by a SIT node's subtree.
  void quarantine_node_subtree(NodeId id, QuarantineReason reason);

  /// Data byte range [lo, hi) covered by a node's subtree.
  std::pair<Addr, Addr> node_data_span(NodeId id) const;

  void persist_qmap() {
    if (recovering_) recovery_persist_boundary("qmap");
    qmap_.persist(dev_, qmap_base_);
  }

  /// A durable write inside recovery is about to happen. MUST be called
  /// before the poke/write becomes durable (throw-before-poke): an armed
  /// nested crash then aborts the attempt with no durable trace of the
  /// aborted boundary, which is what keeps re-entry convergent.
  void recovery_persist_boundary(const char* stage);

  /// Patrol scrub driver: every ft_.scrub_interval_accesses demand accesses,
  /// patrol up to ft_.scrub_lines_per_epoch resident data lines.
  void maybe_scrub(Cycle& now);
  void scrub_one(Addr addr, Cycle& now);

  /// Common entry/exit for scheme recover() implementations: prologue
  /// resets counters and reloads the persisted quarantine map; finish
  /// computes salvage totals, timing, and clears recovering_.
  void recovery_prologue();
  RecoveryReport finish_recovery(RecoveryReport r);

  /// Reads during recovery are charged to the recovery budget instead of
  /// the runtime channel.
  bool recovering_ = false;
  std::uint64_t recovery_reads_ = 0;
  std::uint64_t recovery_writes_ = 0;
  /// Aborted-attempt telemetry accumulated across nested crashes; a fresh
  /// (non-resuming) prologue clears it.
  std::vector<RecoveryAttempt> attempt_log_;
  bool recovery_resume_ = false;           // next recover() re-enters
  std::uint64_t recovery_cursor_pos_ = 0;  // scheme-reported cursor position

  /// Modeled time of the current attempt so far.
  double recovery_attempt_seconds() const {
    return static_cast<double>(recovery_reads_) * cfg_.secure.recovery_read_ns * 1e-9 +
           static_cast<double>(recovery_writes_) * cfg_.nvm.t_wr_ns * 1e-9;
  }

  /// Channel read that respects recovery accounting.
  Cycle timed_read(Addr addr, Cycle now, Block* out);
  /// Channel (posted) write that respects recovery accounting. A non-null
  /// `tag` rides the queue with the block (single-transaction ECC tag).
  Cycle timed_write(Addr addr, const Block& data, Cycle now, LatencyAccumulator* acc = nullptr,
                    Cycle birth = 0, const std::uint64_t* tag = nullptr);

  /// Nodes currently being flushed but not yet written (see
  /// persist_detached); newest last.
  std::vector<const SitNode*> inflight_persists_;

  SystemConfig cfg_;
  SitGeometry geo_;
  NvmDevice dev_;
  NvmChannel channel_;
  CmeEngine cme_;
  MetadataCache mcache_;
  std::vector<std::uint64_t> root_;  // on-chip NV root register (per top node)
  ExecStats stats_;
  Cycle mc_free_at_ = 0;       // controller front-end serialization
  Cycle tracking_penalty_ = 0; // per-op tracking work (write-latency side)

  // Fault-tolerance state (declared after dev_: qmap_base_ derives from it).
  FaultInjector* injector_ = nullptr;  // armed nested crashes + crash drains
  FaultToleranceConfig ft_;
  QuarantineMap qmap_;
  FtStats ft_stats_;
  Addr qmap_base_ = 0;
  std::uint64_t scrub_accesses_ = 0;
  std::uint64_t scrub_cursor_ = 0;
  bool in_scrub_ = false;
};

/// Factory covering the paper's evaluated schemes.
std::unique_ptr<SecureMemory> make_scheme(Scheme scheme, const SystemConfig& cfg);

}  // namespace steins
