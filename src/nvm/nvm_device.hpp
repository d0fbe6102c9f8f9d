// Functional + timing model of the DDR-based NVM device (paper Table I).
//
// Functional: a sparse 64 B-block store over the simulated physical address
// space (data region, metadata region, and per-scheme auxiliary regions).
// Untouched blocks read as zero. Each block additionally carries an 8-byte
// "tag" sidecar modeling ECC-colocated MACs (Synergy-style): the tag moves
// with the block in a single memory transaction, so it adds no traffic.
//
// Timing/energy: per-access latencies from the PCM latency model and a
// simple energy counter. Queueing/scheduling lives in NvmChannel.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace steins {

struct NvmStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double energy_nj = 0.0;
  // ECC model counters.
  std::uint64_t ecc_corrected_reads = 0;
  std::uint64_t ecc_retry_reads = 0;
  std::uint64_t ecc_uncorrectable_reads = 0;
  std::uint64_t lines_remapped = 0;
  // Wear/endurance model counters.
  std::uint64_t lines_wear_leveled = 0;  // proactive migrations to spares
  std::uint64_t lines_worn_out = 0;      // lines that crossed their limit

  void reset() { *this = NvmStats{}; }
};

class NvmDevice {
 public:
  explicit NvmDevice(const NvmConfig& cfg)
      : cfg_(cfg), limit_(address_limit(cfg)),
        remap_pool_free_(cfg.remap_pool_lines) {}

  /// Functional block read; counts a device read + energy.
  Block read_block(Addr addr);

  /// Functional block write; counts a device write + energy.
  /// Throws std::out_of_range beyond the device's address limit — a write
  /// there is a wild pointer (corrupted offset / record arithmetic), and
  /// silently storing it would mask the bug under the sparse block map.
  void write_block(Addr addr, const Block& data);

  /// ECC-colocated 8-byte tag (data HMAC, node sidecar). Reads/writes of the
  /// tag ride along with the block transaction: no extra traffic or energy.
  std::uint64_t read_tag(Addr addr) const;
  void write_tag(Addr addr, std::uint64_t tag);

  /// Second sidecar: spare ECC bits used by STAR to stash parent-counter
  /// LSBs alongside each block (paper §IV: "STAR stores the LSBs of the
  /// parent counter in the child node").
  std::uint64_t read_tag2(Addr addr) const;
  void write_tag2(Addr addr, std::uint64_t tag);

  /// Peek without charging traffic (attacker / test / snapshot use).
  Block peek_block(Addr addr) const;
  void poke_block(Addr addr, const Block& data);  // attacker mutation

  // --- Per-line ECC model -------------------------------------------------
  //
  // A line can carry at most one ECC fault record. A correctable fault keeps
  // the pre-fault ("golden") image recoverable after `retries` re-reads; the
  // stored image itself is flipped, so plain read_block/peek_block return
  // corrupted bytes exactly as before this model existed. A second fault on
  // an already-faulted line exceeds SECDED's correction budget and escalates
  // to uncorrectable. Any full-line write lays down a fresh codeword and
  // clears the fault.

  /// Outcome of an ECC-aware read attempt.
  enum class EccRead { kClean, kCorrected, kNeedsRetry, kUncorrectable };

  /// Flip `bit` of the stored image and record the ECC fault. `retries` is
  /// the number of kNeedsRetry results a correctable fault yields before a
  /// read finally corrects (models marginal cells needing re-sensing).
  void inject_ecc_error(Addr addr, unsigned bit, bool correctable,
                        unsigned retries);

  bool has_ecc_faults() const { return !ecc_faults_.empty(); }
  bool ecc_faulted(Addr addr) const { return ecc_faults_.contains(align(addr)); }
  bool ecc_uncorrectable(Addr addr) const;

  /// ECC-aware read: counts a device read; decrements the retry budget on
  /// kNeedsRetry. On kCorrected, *out holds the golden image; on kClean the
  /// stored image; otherwise the corrupted stored image.
  EccRead read_block_ecc(Addr addr, Block* out);

  /// Peek through ECC without charging traffic: golden image for a
  /// correctable fault, stored (corrupt) image otherwise. Sets *uncorrectable
  /// when the line's content is unrecoverable.
  Block peek_corrected(Addr addr, bool* uncorrectable) const;

  /// One-probe recovery scan of a line, charging no traffic: returns
  /// contains(addr) and sets *image to peek_corrected(addr), *tag (when
  /// non-null) to read_tag(addr) and *uncorrectable as peek_corrected does.
  bool peek_resident(Addr addr, Block* image, std::uint64_t* tag, bool* uncorrectable) const;

  /// Retire an uncorrectable line to a spare from the remap pool. Clears the
  /// fault and drops the stale block/tag images (the spare starts blank).
  /// Returns false when the pool is exhausted.
  bool remap_line(Addr addr);

  std::size_t remap_pool_free() const { return remap_pool_free_; }

  // --- Per-cell wear / endurance model ------------------------------------
  //
  // Enabled when cfg.endurance_mean_writes > 0. Demand-path writes
  // (write_block) age the target line; peeks/pokes model bookkeeping or
  // attacker traffic and do not. A line approaching its endurance limit is
  // proactively migrated to a spare (wear-leveling, data preserved); past
  // the limit its cells stick and every write re-faults the line as
  // uncorrectable, feeding the ECC retirement/quarantine path.

  bool wear_enabled() const { return cfg_.endurance_mean_writes > 0; }

  /// Deterministic per-line Gaussian endurance limit (writes until the
  /// cells stick). Irwin-Hall sum of four uniforms: no libm, so the draw
  /// is bit-identical across platforms. Clamped to >= 4.
  std::uint64_t wear_limit(Addr addr) const;

  /// Demand writes absorbed by this line since birth (or last migration).
  std::uint32_t wear_of(Addr addr) const;

  /// True once the line crossed its limit (stuck cells; writes re-fault).
  bool worn_out(Addr addr) const;

  /// Resident lines in [lo, hi) with nonzero wear, sorted by address —
  /// the endurance campaign's projection input.
  std::vector<std::pair<Addr, std::uint32_t>> wear_profile(Addr lo, Addr hi) const;

  bool contains(Addr addr) const {
    const Line* ln = store_.find(align(addr));
    return ln != nullptr && (ln->flags & Line::kBlock) != 0;
  }

  /// Pull the backing-store slot for `addr` toward the host cache ahead of
  /// an access. Purely a host-side hint; no simulated effect.
  void prefetch(Addr addr) const { store_.prefetch(align(addr)); }

  /// Addresses (sorted, block-aligned) of resident blocks / tags in
  /// [lo, hi). Fault injection and audits target regions through these;
  /// sorting makes the selection independent of hash-map iteration order.
  std::vector<Addr> resident_blocks(Addr lo, Addr hi) const;
  std::vector<Addr> resident_tags(Addr lo, Addr hi) const;

  /// Exclusive upper bound of writable addresses. The data region, the SIT
  /// metadata region (< 15% of capacity) and the per-scheme aux regions all
  /// fit below 2x capacity plus a fixed slack; anything above is garbage.
  Addr address_limit() const { return limit_; }
  static Addr address_limit(const NvmConfig& cfg) {
    return cfg.capacity_bytes * 2 + (Addr{32} << 20);
  }

  const NvmStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  const NvmConfig& config() const { return cfg_; }

 private:
  static Addr align(Addr a) { return a & ~static_cast<Addr>(kBlockSize - 1); }

  void check_limit(Addr addr) const;

  struct EccLineState {
    Block golden{};            // pre-fault image (valid while correctable)
    bool uncorrectable = false;
    unsigned retries_needed = 0;
  };

  /// The line's ECC fault record, or nullptr. Skips the hash probe while no
  /// line is faulted (the common case for every scan).
  const EccLineState* ecc_fault(Addr line) const;

  // --- Line arena ---------------------------------------------------------
  //
  // One open-addressed table keyed by block-aligned address holds the block
  // image plus both ECC-colocated tag sidecars inline, so one probe serves
  // the whole memory transaction (they travel together on the wire, and now
  // in the same simulator cache lines). Presence flags preserve the sparse
  // semantics: untouched blocks read as zero and stay invisible to
  // resident_blocks()/contains(); a "remapped" line clears its flags but
  // keeps its key slot (deletions are rare, tombstone-free).

  struct Line {
    static constexpr std::uint8_t kBlock = 1;
    static constexpr std::uint8_t kTag = 2;
    static constexpr std::uint8_t kTag2 = 4;
    static constexpr std::uint8_t kWorn = 8;  // crossed its endurance limit

    Block block{};
    std::uint64_t tag = 0;
    std::uint64_t tag2 = 0;
    std::uint32_t wear = 0;  // demand writes since birth / last migration
    std::uint8_t flags = 0;
  };

  /// Age `ln` by one demand write: wear-level toward a spare near the
  /// limit, re-fault the line as uncorrectable past it.
  void apply_wear(Addr line, Line& ln);

  /// Re-inject the stuck-cell fault of a worn-out line after a write laid
  /// a "fresh" codeword over it (worn cells do not heal).
  void refault_worn(Addr line, Line& ln);

  /// Linear-probing hash table, power-of-two capacity, keys are line+1
  /// (0 = empty). Entries live inline in a parallel array, so a key hit is
  /// one extra indexed load, not a pointer chase. Entry storage is raw
  /// (malloc, no value-init): a table that grows to millions of 88-byte
  /// lines would otherwise spend its time memset-ing slots the key array
  /// already marks empty. Only claimed slots are ever constructed or read.
  class LineTable {
   public:
    static_assert(std::is_trivially_copyable_v<Line> &&
                      std::is_trivially_destructible_v<Line>,
                  "raw entry storage relies on memcpy-able lines");

    LineTable() : keys_(kInitialCap, 0), entries_(alloc(kInitialCap)), mask_(kInitialCap - 1) {}
    LineTable(const LineTable& o)
        : keys_(o.keys_), entries_(alloc(o.mask_ + 1)), mask_(o.mask_), size_(o.size_) {
      for (std::size_t i = 0; i <= mask_; ++i) {
        if (keys_[i] != 0) entries_[i] = o.entries_[i];
      }
    }
    LineTable& operator=(const LineTable& o) {
      if (this != &o) {
        LineTable copy(o);
        keys_.swap(copy.keys_);
        std::swap(entries_, copy.entries_);
        std::swap(mask_, copy.mask_);
        std::swap(size_, copy.size_);
      }
      return *this;
    }
    ~LineTable() { std::free(entries_); }

    /// Pull the line's home slot toward the host cache ahead of a lookup.
    void prefetch(Addr line) const {
      const std::size_t i = hash(line + 1) & mask_;
      __builtin_prefetch(&keys_[i]);
      __builtin_prefetch(&entries_[i]);
    }

    Line* find(Addr line) const {
      const std::uint64_t key = line + 1;
      std::size_t i = hash(key) & mask_;
      while (true) {
        const std::uint64_t k = keys_[i];
        if (k == key) return &entries_[i];
        if (k == 0) return nullptr;
        i = (i + 1) & mask_;
      }
    }

    Line& get_or_create(Addr line) {
      const std::uint64_t key = line + 1;
      std::size_t i = hash(key) & mask_;
      while (true) {
        const std::uint64_t k = keys_[i];
        if (k == key) return entries_[i];
        if (k == 0) break;
        i = (i + 1) & mask_;
      }
      if ((size_ + 1) * 2 > mask_ + 1) {
        grow();
        i = hash(key) & mask_;
        while (keys_[i] != 0) i = (i + 1) & mask_;
      }
      keys_[i] = key;
      ++size_;
      entries_[i] = Line{};
      return entries_[i];
    }

    /// Visit every occupied slot as (line_addr, entry). Table order; callers
    /// needing a deterministic order sort the addresses they collect.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t i = 0; i <= mask_; ++i) {
        if (keys_[i] != 0) fn(static_cast<Addr>(keys_[i] - 1), entries_[i]);
      }
    }

   private:
    static constexpr std::size_t kInitialCap = 4096;

    static std::size_t hash(std::uint64_t k) {
      k ^= k >> 33;
      k *= 0xff51afd7ed558ccdULL;
      k ^= k >> 33;
      return static_cast<std::size_t>(k);
    }

    static Line* alloc(std::size_t cap) {
      Line* p = static_cast<Line*>(std::malloc(cap * sizeof(Line)));
      STEINS_CHECK(p != nullptr, "NVM line table allocation failed");
      return p;
    }

    void grow() {
      const std::size_t cap = (mask_ + 1) * 2;
      std::vector<std::uint64_t> keys(cap, 0);
      Line* entries = alloc(cap);
      const std::size_t mask = cap - 1;
      for (std::size_t i = 0; i <= mask_; ++i) {
        if (keys_[i] == 0) continue;
        std::size_t j = hash(keys_[i]) & mask;
        while (keys[j] != 0) j = (j + 1) & mask;
        keys[j] = keys_[i];
        entries[j] = entries_[i];
      }
      keys_.swap(keys);
      std::free(entries_);
      entries_ = entries;
      mask_ = mask;
    }

    std::vector<std::uint64_t> keys_;
    Line* entries_;
    std::size_t mask_;
    std::size_t size_ = 0;
  };

  NvmConfig cfg_;
  Addr limit_;
  NvmStats stats_;
  std::size_t remap_pool_free_;
  LineTable store_;
  std::unordered_map<Addr, EccLineState> ecc_faults_;
};

}  // namespace steins
