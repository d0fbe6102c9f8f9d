// CacheTree: the on-chip cache-tree of ASIT and STAR (paper §II-D) — an
// arity-kTreeArity Merkle tree of 64-bit MACs over per-line (ASIT) or
// per-set (STAR) leaf MACs, whose root lives in a non-volatile register.
//
// The hardware recomputes the leaf MAC and the path to the root on every
// metadata modification, and the schemes charge that cost per modification
// (depth() MACs). Nothing reads the root before recovery, though, so the
// host computes it lazily: touch() records that a leaf's input changed, and
// settle() recomputes only the touched leaves and the internal nodes on
// their paths once, when the root is needed (at crash, in recovery).
//
// Values are those of a full recompute: a leaf reads leaf_mac(i) as of the
// settle() after its last touch, or 0 if it was not touched since the last
// clear(); every internal node is the MAC of its (up to kTreeArity)
// children, the last group of a level possibly partial. clear() models the
// loss of the volatile tree body at power failure, so the settle() after it
// recomputes every internal node over the leaves touched since.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace steins {

class CacheTree {
 public:
  explicit CacheTree(std::size_t leaves) {
    STEINS_CHECK(leaves > 0, "a cache-tree needs at least one leaf");
    std::size_t n = leaves;
    std::size_t total = 0;
    while (true) {
      level_base_.push_back(total);
      level_size_.push_back(n);
      total += n;
      if (n == 1) break;
      n = (n + kTreeArity - 1) / kTreeArity;
    }
    nodes_.assign(total, 0);
    marked_.assign(total, 0);
    pending_.resize(level_size_.size());
  }

  std::size_t leaves() const { return level_size_[0]; }

  /// Levels including the leaf level: the MACs one modification recomputes.
  unsigned depth() const { return static_cast<unsigned>(level_size_.size()); }

  /// True when nothing was touched since the last settle() or clear().
  bool settled() const { return pending_[0].empty(); }

  /// Leaf `leaf`'s input changed; its MAC is recomputed at the next settle.
  void touch(std::size_t leaf) {
    if (marked_[leaf] != 0) return;
    marked_[leaf] = 1;
    pending_[0].push_back(leaf);
  }

  /// Recompute the touched leaves through `leaf_mac(i)` and the internal
  /// nodes above them through `mac.mac64(bytes)`; returns the root.
  template <typename Mac, typename LeafMacFn>
  std::uint64_t settle(const Mac& mac, LeafMacFn&& leaf_mac) {
    for (const std::size_t i : pending_[0]) {
      nodes_[i] = leaf_mac(i);
      marked_[i] = 0;
      if (!body_lost_) mark(1, i / kTreeArity);
    }
    pending_[0].clear();
    for (std::size_t level = 1; level < level_size_.size(); ++level) {
      if (body_lost_) {
        for (std::size_t p = 0; p < level_size_[level]; ++p) recompute(mac, level, p);
        continue;
      }
      for (const std::size_t p : pending_[level]) {
        recompute(mac, level, p);
        marked_[level_base_[level] + p] = 0;
        mark(level + 1, p / kTreeArity);
      }
      pending_[level].clear();
    }
    body_lost_ = false;
    return nodes_.back();
  }

  /// Power loss: every node reads 0 until touched and settled again.
  void clear() {
    std::fill(nodes_.begin(), nodes_.end(), 0);
    std::fill(marked_.begin(), marked_.end(), 0);
    for (auto& p : pending_) p.clear();
    body_lost_ = true;
  }

 private:
  void mark(std::size_t level, std::size_t index) {
    if (level >= level_size_.size()) return;
    std::uint8_t& m = marked_[level_base_[level] + index];
    if (m != 0) return;
    m = 1;
    pending_[level].push_back(index);
  }

  template <typename Mac>
  void recompute(const Mac& mac, std::size_t level, std::size_t p) {
    const std::size_t first = p * kTreeArity;
    const std::size_t n = std::min(kTreeArity, level_size_[level - 1] - first);
    const std::uint64_t* children = &nodes_[level_base_[level - 1] + first];
    nodes_[level_base_[level] + p] =
        mac.mac64({reinterpret_cast<const std::uint8_t*>(children), n * 8});
  }

  std::vector<std::size_t> level_base_;  // offset of each level in nodes_
  std::vector<std::size_t> level_size_;  // [0] = leaves, back() = 1 (root)
  std::vector<std::uint64_t> nodes_;     // every level, leaves first
  std::vector<std::uint8_t> marked_;     // node queued in pending_
  std::vector<std::vector<std::size_t>> pending_;  // per level, touch order
  bool body_lost_ = true;  // settle() must rebuild every internal node
};

}  // namespace steins
