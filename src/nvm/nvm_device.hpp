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
#include <new>
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
  /// sorting makes the selection independent of the store's page order.
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

  // --- Line store ---------------------------------------------------------
  //
  // One record per 64 B line holds the block image plus both ECC-colocated
  // tag sidecars inline, so one lookup serves the whole memory transaction
  // (they travel together on the wire, and here in the same host cache
  // lines). Presence flags keep the sparse semantics: untouched blocks read
  // as zero and stay invisible to resident_blocks()/contains(); a
  // "remapped" line clears its flags but stays stored. Public so the
  // differential tests can drive the store directly.

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

  /// Paged line store. Lines live in address-ordered pages of kPageLines
  /// (one GC counter leaf's coverage), each with a presence mask; a page is
  /// created whole on its first line and never moves or dies, so a Line*
  /// stays valid for the table's lifetime. Pages come from fixed-size
  /// chunks in creation order. A linear-probing directory (power-of-two
  /// capacity, at most half full) maps page number + 1 (0 = empty) to the
  /// page pointer held inline in the slot, so a random probe costs one
  /// directory line and then the page. Growing the directory rehashes
  /// 16-byte slots only; no line is copied.
  ///
  /// A one-entry last-page cache serves consecutive lines of one page
  /// without touching the directory: leaf rebuilds, crash resync, ASIT
  /// shadow passes and KV read-back all walk neighbouring blocks. find()
  /// updates it, so the table, including its const reads, belongs to one
  /// thread at a time, like the rest of a System.
  ///
  /// The page size is fixed. A sparse random footprint pays for mostly
  /// empty pages: with 64-line pages (perfbench, 4-vCPU host) spec-read's
  /// peak RSS rose from 24.8 to 58 MB and its ops/s fell by a third, while
  /// persist-crash gained nothing.
  class LineTable {
   public:
    static constexpr std::size_t kPageLines = 8;

    LineTable() : dir_(kInitialDirSlots), dir_mask_(kInitialDirSlots - 1) {}
    LineTable(const LineTable& o)
        : dir_(o.dir_mask_ + 1), dir_mask_(o.dir_mask_), size_(o.size_) {
      chunks_.reserve(o.chunks_.size());
      for (std::size_t c = 0; c < o.chunks_.size(); ++c) chunks_.push_back(alloc_chunk());
      pages_ = o.pages_;
      for (std::size_t p = 0; p < pages_; ++p) insert(new (&page_at(p)) Page(o.page_at(p)));
    }
    LineTable& operator=(const LineTable& o) {
      if (this != &o) {
        LineTable copy(o);
        chunks_.swap(copy.chunks_);
        dir_.swap(copy.dir_);
        std::swap(dir_mask_, copy.dir_mask_);
        std::swap(pages_, copy.pages_);
        std::swap(size_, copy.size_);
        std::swap(last_key_, copy.last_key_);
        std::swap(last_page_, copy.last_page_);
      }
      return *this;
    }
    ~LineTable() {
      for (Page* chunk : chunks_) std::free(chunk);
    }

    /// Lines ever created (remapped lines included).
    std::size_t size() const { return size_; }

    /// Pull the line toward the host cache ahead of a lookup: the line
    /// itself when its page is the cached one, its directory slot else.
    void prefetch(Addr line) const {
      const std::uint64_t key = page_key(line);
      if (key == last_key_) {
        __builtin_prefetch(&last_page_->lines[line_in_page(line)]);
      } else {
        __builtin_prefetch(&dir_[hash(key) & dir_mask_]);
      }
    }

    Line* find(Addr line) const {
      Page* page = find_page(page_key(line));
      if (page == nullptr) return nullptr;
      const std::size_t i = line_in_page(line);
      return (page->present >> i & 1u) != 0 ? &page->lines[i] : nullptr;
    }

    Line& get_or_create(Addr line) {
      const std::uint64_t key = page_key(line);
      Page* page = find_page(key);
      if (page == nullptr) page = add_page(key);
      const std::size_t i = line_in_page(line);
      const auto bit = static_cast<std::uint8_t>(1u << i);
      if ((page->present & bit) == 0) {
        page->present |= bit;  // lines of a fresh page are already Line{}
        ++size_;
      }
      return page->lines[i];
    }

    /// Visit every stored line as (line_addr, entry): pages in creation
    /// order, lines ascending within a page. Callers needing an address
    /// order sort what they collect.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t p = 0; p < pages_; ++p) {
        const Page& page = page_at(p);
        const Addr base = (page.key - 1) * kPageBytes;
        for (std::size_t i = 0; i < kPageLines; ++i) {
          if ((page.present >> i & 1u) != 0) fn(base + i * kBlockSize, page.lines[i]);
        }
      }
    }

   private:
    static constexpr std::size_t kPageBytes = kPageLines * kBlockSize;
    static constexpr std::size_t kChunkPages = 64;
    static constexpr std::size_t kInitialDirSlots = 256;
    static_assert(kPageLines <= 8, "the presence mask is one byte");

    struct Page {
      std::uint64_t key = 0;     // page number + 1
      std::uint8_t present = 0;  // bit i: lines[i] was created
      Line lines[kPageLines]{};
    };
    static_assert(std::is_trivially_copyable_v<Page> &&
                      std::is_trivially_destructible_v<Page>,
                  "raw chunk storage relies on memcpy-able pages");

    struct Slot {
      std::uint64_t key = 0;  // page number + 1, 0 = empty
      Page* page = nullptr;
    };

    static std::uint64_t page_key(Addr line) { return line / kPageBytes + 1; }
    static std::size_t line_in_page(Addr line) {
      return static_cast<std::size_t>(line / kBlockSize) % kPageLines;
    }

    static std::size_t hash(std::uint64_t k) {
      k ^= k >> 33;
      k *= 0xff51afd7ed558ccdULL;
      k ^= k >> 33;
      return static_cast<std::size_t>(k);
    }

    /// Raw chunk storage: a page is value-initialized when it is handed out,
    /// so the untouched tail of a chunk never costs resident memory.
    static Page* alloc_chunk() {
      Page* p = static_cast<Page*>(std::malloc(kChunkPages * sizeof(Page)));
      STEINS_CHECK(p != nullptr, "NVM line store allocation failed");
      return p;
    }

    Page& page_at(std::size_t p) const { return chunks_[p / kChunkPages][p % kChunkPages]; }

    Page* find_page(std::uint64_t key) const {
      if (key == last_key_) return last_page_;
      for (std::size_t i = hash(key) & dir_mask_;; i = (i + 1) & dir_mask_) {
        const Slot& s = dir_[i];
        if (s.key == key) {
          last_key_ = key;
          last_page_ = s.page;
          return s.page;
        }
        if (s.key == 0) return nullptr;
      }
    }

    Page* add_page(std::uint64_t key) {
      if ((pages_ + 1) * 2 > dir_mask_ + 1) grow_dir();
      if (pages_ == chunks_.size() * kChunkPages) chunks_.push_back(alloc_chunk());
      Page* page = new (&page_at(pages_)) Page{};
      page->key = key;
      ++pages_;
      insert(page);
      last_key_ = key;
      last_page_ = page;
      return page;
    }

    /// Directory insert of a page known to be absent.
    void insert(Page* page) {
      std::size_t i = hash(page->key) & dir_mask_;
      while (dir_[i].key != 0) i = (i + 1) & dir_mask_;
      dir_[i] = Slot{page->key, page};
    }

    void grow_dir() {
      std::vector<Slot> old(2 * (dir_mask_ + 1));
      dir_.swap(old);
      dir_mask_ = dir_.size() - 1;
      for (const Slot& s : old) {
        if (s.key != 0) insert(s.page);
      }
    }

    std::vector<Page*> chunks_;
    std::vector<Slot> dir_;
    std::size_t dir_mask_;
    std::size_t pages_ = 0;
    std::size_t size_ = 0;
    mutable std::uint64_t last_key_ = 0;  // 0: no page cached
    mutable Page* last_page_ = nullptr;
  };

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

  /// Age `ln` by one demand write: wear-level toward a spare near the
  /// limit, re-fault the line as uncorrectable past it.
  void apply_wear(Addr line, Line& ln);

  /// Re-inject the stuck-cell fault of a worn-out line after a write laid
  /// a "fresh" codeword over it (worn cells do not heal).
  void refault_worn(Addr line, Line& ln);

  NvmConfig cfg_;
  Addr limit_;
  NvmStats stats_;
  std::size_t remap_pool_free_;
  LineTable store_;
  std::unordered_map<Addr, EccLineState> ecc_faults_;
};

}  // namespace steins
