// Generic set-associative write-back cache with true-LRU replacement.
//
// Used three ways: tag-only (CPU cache levels, Payload = Empty), with node
// payloads (the memory controller's metadata cache), and for the small
// ADR-resident record/bitmap line caches of Steins and STAR.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace steins {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
  void reset() { *this = CacheStats{}; }
};

/// Number of sets for a (size, ways, block) geometry; asserts power of two.
std::size_t cache_num_sets(std::size_t size_bytes, unsigned ways, std::size_t block_bytes);

template <typename Payload>
class SetAssocCache {
 public:
  struct Line {
    Addr tag = 0;          // full block-aligned address
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru = 0;  // larger = more recently used
    // Takes no bytes when Payload is Empty (tag-only CPU levels).
    [[no_unique_address]] Payload payload{};
  };

  struct Evicted {
    Addr addr;
    bool dirty;
    Payload payload;
  };

  SetAssocCache(std::size_t size_bytes, unsigned ways, std::size_t block_bytes = kBlockSize)
      : ways_(ways),
        block_bytes_(block_bytes),
        sets_(cache_num_sets(size_bytes, ways, block_bytes)),
        lines_(sets_ * ways),
        probe_(sets_ * ways, kInvalidTag) {
    STEINS_CHECK(std::has_single_bit(block_bytes), "block size must be a power of two");
    block_shift_ = static_cast<unsigned>(std::countr_zero(block_bytes));
    set_mask_ = sets_ - 1;
    align_mask_ = ~(static_cast<Addr>(block_bytes) - 1);
  }

  std::size_t num_sets() const { return sets_; }
  unsigned ways() const { return ways_; }
  std::size_t num_lines() const { return lines_.size(); }

  /// Look up without allocating. Returns the line or nullptr. Updates LRU
  /// and the dirty bit on a hit.
  Line* lookup(Addr addr, bool mark_dirty = false) {
    const Addr tag = align(addr);
    const std::size_t base = set_index(tag) * ways_;
    // Probe the compact tag array first: one cache line covers a whole set
    // even when Payload is a fat tree node.
    for (unsigned w = 0; w < ways_; ++w) {
      if (probe_[base + w] == tag) {
        Line& line = lines_[base + w];
        line.lru = ++clock_;
        if (mark_dirty) line.dirty = true;
        ++stats_.hits;
        return &line;
      }
    }
    ++stats_.misses;
    return nullptr;
  }

  /// Pull the set's probe tags toward the host cache ahead of a lookup.
  /// Purely a host-side hint; no simulated effect.
  void prefetch(Addr addr) const { __builtin_prefetch(&probe_[set_index(align(addr)) * ways_]); }

  /// Mutable peek without touching LRU or stats.
  Line* peek_mut(Addr addr) {
    return const_cast<Line*>(static_cast<const SetAssocCache*>(this)->peek(addr));
  }

  /// Peek without touching LRU or stats (used by crash snapshots / tests).
  const Line* peek(Addr addr) const {
    const Addr tag = align(addr);
    const std::size_t base = set_index(tag) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (probe_[base + w] == tag) return &lines_[base + w];
    }
    return nullptr;
  }

  /// Insert a block (must not already be present). Returns the victim if a
  /// valid line had to be evicted, along with its payload.
  std::optional<Evicted> insert(Addr addr, bool dirty, Payload payload, Line** out_line = nullptr) {
    const Addr tag = align(addr);
    // A duplicate insert would create two valid lines for one tag, so
    // lookup would hit either nondeterministically while eviction could
    // drop a dirty twin — silent corruption. assert() vanished under
    // NDEBUG; STEINS_CHECK stays armed in Release builds.
    STEINS_CHECK(peek(tag) == nullptr, "insert of already-cached block");
    const std::size_t base = set_index(tag) * ways_;
    Line* victim = &lines_[base];
    for (unsigned w = 0; w < ways_; ++w) {
      Line& line = lines_[base + w];
      if (!line.valid) {
        victim = &line;
        break;
      }
      if (line.lru < victim->lru) victim = &line;
    }
    std::optional<Evicted> evicted;
    if (victim->valid) {
      ++stats_.evictions;
      if (victim->dirty) ++stats_.dirty_evictions;
      evicted = Evicted{victim->tag, victim->dirty, std::move(victim->payload)};
    }
    victim->tag = tag;
    victim->valid = true;
    victim->dirty = dirty;
    victim->lru = ++clock_;
    victim->payload = std::move(payload);
    probe_[static_cast<std::size_t>(victim - lines_.data())] = tag;
    if (out_line != nullptr) *out_line = victim;
    return evicted;
  }

  /// Invalidate a block if present; returns its line contents.
  std::optional<Evicted> invalidate(Addr addr) {
    const Addr tag = align(addr);
    const std::size_t base = set_index(tag) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (probe_[base + w] == tag) {
        Line& line = lines_[base + w];
        line.valid = false;
        probe_[base + w] = kInvalidTag;
        return Evicted{line.tag, line.dirty, std::move(line.payload)};
      }
    }
    return std::nullopt;
  }

  /// Index of the line (set * ways + way) a cached block occupies, or -1.
  /// Steins keys its offset records by this index; ASIT keys its shadow
  /// table by it.
  std::int64_t line_index(Addr addr) const {
    const Addr tag = align(addr);
    const std::size_t base = set_index(tag) * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (probe_[base + w] == tag) return static_cast<std::int64_t>(base + w);
    }
    return -1;
  }

  /// Visit the valid lines of one set only (O(ways)).
  template <typename Fn>
  void for_each_in_set(std::size_t set, Fn&& fn) const {
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
      const Line& line = lines_[base + w];
      if (line.valid) fn(line);
    }
  }

  /// Visit every valid line (e.g. to enumerate dirty nodes at crash time).
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (auto& line : lines_) {
      if (line.valid) fn(line);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& line : lines_) {
      if (line.valid) fn(line);
    }
  }

  void clear() {
    for (auto& line : lines_) line = Line{};
    std::fill(probe_.begin(), probe_.end(), kInvalidTag);
  }

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  std::size_t set_index(Addr addr) const { return (addr >> block_shift_) & set_mask_; }

 private:
  // Not block-aligned, so it can never collide with a stored tag.
  static constexpr Addr kInvalidTag = ~static_cast<Addr>(0);

  Addr align(Addr a) const { return a & align_mask_; }

  unsigned ways_;
  std::size_t block_bytes_;
  std::size_t sets_;
  std::vector<Line> lines_;
  /// Tag-or-kInvalidTag per line, contiguous per set, probed before lines_.
  std::vector<Addr> probe_;
  unsigned block_shift_ = 0;
  std::size_t set_mask_ = 0;
  Addr align_mask_ = 0;
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

/// Tag-only payload for CPU cache levels.
struct Empty {};

using TagCache = SetAssocCache<Empty>;
// The L3 tag array alone holds 32k of these.
static_assert(sizeof(TagCache::Line) <= 24, "a tag-only line must not pay for its payload");

}  // namespace steins
