// Open-addressed hash map for the simulator's 64-bit-keyed hot tables
// (plaintext truth store, recovery scratch maps). Linear probing over a
// power-of-two capacity with values inline in a parallel array: a lookup is
// one mixed hash plus a short contiguous scan, no per-node allocation, no
// pointer chase. Keys are stored as key+1 so 0 marks an empty slot — the
// all-ones key (~0) is therefore not storable; addresses and node indices
// never take that value.
//
// No erase: tables are append-only for a run. A table that must forget a
// key overwrites its value in place with one its readers treat as absent
// (System::resync_truth_after_crash zeroes lost blocks). for_each visits
// slots in table order, which is deterministic for a fixed insertion
// sequence; callers that need a canonical order sort the keys they collect.
// Value references stay valid until the next insertion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace steins {

template <typename V>
class FlatMap {
 public:
  explicit FlatMap(std::size_t initial_capacity = 1024)
      : keys_(round_up(initial_capacity), 0),
        vals_(round_up(initial_capacity)),
        mask_(keys_.size() - 1) {}

  V* find(std::uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap*>(this)->find(key));
  }
  const V* find(std::uint64_t key) const {
    const std::uint64_t k1 = key + 1;
    STEINS_CHECK(k1 != 0, "FlatMap cannot store the all-ones key");
    std::size_t i = hash(k1) & mask_;
    while (true) {
      const std::uint64_t k = keys_[i];
      if (k == k1) return &vals_[i];
      if (k == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != nullptr; }

  /// Pull the key's home slot toward the host cache ahead of a lookup.
  /// Purely a host-side hint; no simulated effect.
  void prefetch(std::uint64_t key) const { __builtin_prefetch(&keys_[hash(key + 1) & mask_]); }

  /// Value for `key`, default-constructed on first touch (like map::operator[]).
  V& get_or_create(std::uint64_t key) {
    const std::uint64_t k1 = key + 1;
    STEINS_CHECK(k1 != 0, "FlatMap cannot store the all-ones key");
    std::size_t i = hash(k1) & mask_;
    while (true) {
      const std::uint64_t k = keys_[i];
      if (k == k1) return vals_[i];
      if (k == 0) break;
      i = (i + 1) & mask_;
    }
    if ((size_ + 1) * 2 > mask_ + 1) {  // max load factor 1/2
      grow();
      i = hash(k1) & mask_;
      while (keys_[i] != 0) i = (i + 1) & mask_;
    }
    keys_[i] = k1;
    ++size_;
    return vals_[i];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(keys_.begin(), keys_.end(), 0);
    for (auto& v : vals_) v = V{};
    size_ = 0;
  }

  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (keys_[i] != 0) fn(keys_[i] - 1, vals_[i]);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (keys_[i] != 0) fn(keys_[i] - 1, vals_[i]);
    }
  }

 private:
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

  void grow() {
    const std::size_t cap = (mask_ + 1) * 2;
    std::vector<std::uint64_t> keys(cap, 0);
    std::vector<V> vals(cap);
    const std::size_t mask = cap - 1;
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (keys_[i] == 0) continue;
      std::size_t j = hash(keys_[i]) & mask;
      while (keys[j] != 0) j = (j + 1) & mask;
      keys[j] = keys_[i];
      vals[j] = std::move(vals_[i]);
    }
    keys_.swap(keys);
    vals_.swap(vals);
    mask_ = mask;
  }

  std::vector<std::uint64_t> keys_;
  mutable std::vector<V> vals_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

}  // namespace steins
