// Open-addressed hash map for the simulator's 64-bit-keyed hot tables
// (plaintext truth store, recovery scratch maps).
//
// Layout: a linear-probing table of 16-byte slots {key + 1, uint32 index}
// over a power-of-two capacity, at most half full, and the values apart
// from it in fixed-size chunks, in insertion order: entry `index` lives in
// chunk index / kChunkValues. A lookup is one mixed hash, a short
// contiguous slot scan and one value load. An entry costs sizeof(V) plus
// 16-32 B of slots, where values inline in the table cost up to twice
// (8 + sizeof(V)); grow() rehashes the slots only, no value is copied or
// moved. Chunk memory is constructed entry by entry, so the untouched tail
// of the last chunk costs no resident memory.
//
// Keys are stored as key+1 so 0 marks an empty slot — the all-ones key
// (~0) is therefore not storable; addresses and node indices never take
// that value. At most 2^32 - 1 entries (the slot index is 32-bit).
//
// Contract:
//  - No erase: tables are append-only for a run. A table that must forget
//    a key overwrites its value in place with one its readers treat as
//    absent (System::resync_truth_after_crash zeroes lost blocks).
//  - A value reference stays valid for the map's lifetime (until clear()
//    or destruction); insertions never move a value.
//  - for_each visits entries in insertion order. Callers that need another
//    order (address order for the crash resync) sort what they collect.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/status.hpp"

namespace steins {

template <typename V>
class FlatMap {
  static_assert(std::is_trivially_destructible_v<V>,
                "chunks are freed without running value destructors");

 public:
  explicit FlatMap(std::size_t initial_capacity = 1024)
      : slots_(round_up(initial_capacity)), mask_(slots_.size() - 1) {}

  V* find(std::uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap*>(this)->find(key));
  }
  const V* find(std::uint64_t key) const {
    const std::uint64_t k1 = key + 1;
    STEINS_CHECK(k1 != 0, "FlatMap cannot store the all-ones key");
    std::size_t i = hash(k1) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == k1) return value_at(s.index);
      if (s.key == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Pull the key's home slot toward the host cache ahead of a lookup.
  /// Purely a host-side hint; no simulated effect.
  void prefetch(std::uint64_t key) const { __builtin_prefetch(&slots_[hash(key + 1) & mask_]); }

  /// Value for `key`, default-constructed on first touch (like map::operator[]).
  V& get_or_create(std::uint64_t key) {
    const std::uint64_t k1 = key + 1;
    STEINS_CHECK(k1 != 0, "FlatMap cannot store the all-ones key");
    std::size_t i = hash(k1) & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == k1) return *value_at(s.index);
      if (s.key == 0) break;
      i = (i + 1) & mask_;
    }
    STEINS_CHECK(size_ < kMaxEntries, "FlatMap exceeds its 32-bit entry index");
    if ((size_ + 1) * 2 > mask_ + 1) {  // max load factor 1/2
      grow();
      i = hash(k1) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
    }
    const auto index = static_cast<std::uint32_t>(size_);
    if (index / kChunkValues == chunks_.size()) {
      chunks_.push_back(std::unique_ptr<Chunk>(new Chunk));  // left uninitialized
    }
    V* v = ::new (static_cast<void*>(value_at(index))) V{};
    slots_[i] = Slot{k1, index};
    ++size_;
    return *v;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Forget every entry. Chunks are kept for reuse; references die.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Visit every entry as (key, value), in insertion order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    const std::vector<std::uint64_t> keys = keys_in_order();
    for (std::size_t i = 0; i < size_; ++i) fn(keys[i], *value_at(i));
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::vector<std::uint64_t> keys = keys_in_order();
    for (std::size_t i = 0; i < size_; ++i) fn(keys[i], static_cast<const V&>(*value_at(i)));
  }

 private:
  static constexpr std::size_t kMaxEntries = 0xffffffffULL;
  /// About 16 KB of values a chunk, a power of two so an index splits by shifts.
  static constexpr std::size_t kChunkValues =
      std::bit_floor(std::max<std::size_t>(1, (std::size_t{16} << 10) / sizeof(V)));

  struct Slot {
    std::uint64_t key = 0;  // key + 1, 0 = empty
    std::uint32_t index = 0;
  };
  static_assert(sizeof(Slot) == 16, "probe slots are 16 bytes");

  /// Uninitialized storage for kChunkValues values, constructed on insertion.
  struct Chunk {
    alignas(V) unsigned char values[kChunkValues * sizeof(V)];
  };

  static std::size_t round_up(std::size_t n) {
    std::size_t cap = 16;
    while (cap < n) cap *= 2;
    return cap;
  }

  static std::size_t hash(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    return static_cast<std::size_t>(k);
  }

  V* value_at(std::size_t index) const {
    return std::launder(reinterpret_cast<V*>(chunks_[index / kChunkValues]->values)) +
           index % kChunkValues;
  }
  /// Key of every entry, indexed by insertion order.
  std::vector<std::uint64_t> keys_in_order() const {
    std::vector<std::uint64_t> keys(size_);
    for (const Slot& s : slots_) {
      if (s.key != 0) keys[s.index] = s.key - 1;
    }
    return keys;
  }

  /// Double the slot table and rehash the slots. Values stay where they are.
  void grow() {
    std::vector<Slot> old(2 * (mask_ + 1));
    slots_.swap(old);
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t i = hash(s.key) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace steins
