// ASIT — Anubis for SGX Integrity Trees (Zubair & Awad, ISCA'19), as
// evaluated by the paper (§II-D, §IV).
//
// Every modification of a cached metadata node is persisted to a Shadow
// Table (ST) in NVM — one 64 B entry per metadata-cache line — doubling the
// write traffic. A cache-tree (Merkle tree over the ST entries) is
// maintained on-chip and its root lives in a non-volatile register. Each
// modification is charged the leaf MAC and the sequential HMACs up the tree
// path; the host stages the entry's image on-chip and computes the root
// once, when the crash latches it into the register (secure/cache_tree.hpp).
// Recovery replays the ST into the metadata cache, verifies the rebuilt
// cache-tree root against the register, and flushes the tree clean.
#pragma once

#include <vector>

#include "secure/cache_tree.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

class AnubisMemory final : public SecureMemoryBase {
 public:
  explicit AnubisMemory(const SystemConfig& cfg);

  void crash() override;
  RecoveryResult recover() override;

  /// Depth (number of MAC recomputations per modification).
  unsigned cache_tree_depth() const { return tree_.depth(); }

 protected:
  Cycle persist_node(SitNode& node, Cycle now) override {
    return persist_with_self_increment(node, now);
  }
  void on_node_modified(NodeId id, Cycle& now) override;

 private:
  Addr shadow_addr(std::size_t line_idx) const {
    return shadow_base_ + line_idx * kBlockSize;
  }
  static std::uint64_t encode_id(NodeId id) {
    return (std::uint64_t{1} << 63) | (static_cast<std::uint64_t>(id.level) << 48) | id.index;
  }
  static bool decode_id(std::uint64_t tag, NodeId* id) {
    if ((tag >> 63) == 0) return false;
    id->level = static_cast<unsigned>((tag >> 48) & 0x7fff);
    id->index = tag & ((std::uint64_t{1} << 48) - 1);
    return true;
  }

  /// Leaf MAC of line `line_idx`: MAC(staged image || line_idx).
  std::uint64_t leaf_mac(std::size_t line_idx) const;
  std::uint64_t settle_tree() {
    return tree_.settle(cme_.mac(), [this](std::size_t i) { return leaf_mac(i); });
  }

  /// Recovery body; recover() wraps it so every exit yields a report.
  void recover_impl(RecoveryReport& result);

  Addr shadow_base_;
  /// The image each line's latest shadow entry was written with, kept
  /// on-chip: the leaf MAC covers what was written, never what NVM holds.
  std::vector<Block> staged_;
  CacheTree tree_;              // leaves = metadata-cache lines
  std::uint64_t root_reg_ = 0;  // on-chip NV register holding the tree root
};

}  // namespace steins
