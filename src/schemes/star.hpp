// STAR — the SIT trace-and-recovery scheme (Huang & Hua, HPCA'21), as
// evaluated by the paper (§II-D, §IV).
//
// Mechanisms modeled:
//  * Each flushed child stashes the LSBs of its (self-incremented) parent
//    counter in its spare ECC bits; recovery reconstructs a dirty node's
//    counters by splicing those LSBs onto the stale counters (with carry).
//  * A multi-layer bitmap over the metadata region tracks dirty nodes; it
//    is updated on BOTH clean->dirty and dirty->clean transitions through a
//    small ADR-resident line cache (worse locality and twice the update
//    rate of Steins' offset records).
//  * A cache-tree over the dirty nodes of each metadata-cache set: every
//    modification is charged sorting the set's dirty nodes by address, their
//    MAC (the set-MAC) and the HMACs up the tree; the root lives in a
//    non-volatile register. The host computes the set-MACs and the root
//    once, when the crash latches it (secure/cache_tree.hpp).
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "secure/cache_tree.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

class StarMemory final : public SecureMemoryBase {
 public:
  explicit StarMemory(const SystemConfig& cfg);

  void crash() override;
  RecoveryResult recover() override;

  /// How many parent-counter LSBs each child carries.
  static constexpr unsigned kLsbBits = 16;

  /// Depth (number of MAC recomputations per modification).
  unsigned cache_tree_depth() const { return tree_.depth(); }

 protected:
  Cycle persist_node(SitNode& node, Cycle now) override;
  void on_node_modified(NodeId id, Cycle& now) override;
  void on_node_dirtied(NodeId id, Cycle& now) override;
  void on_node_cleaned(NodeId id, Cycle& now) override;
  void on_data_written(Addr addr, std::uint64_t counter, Cycle& now) override;

 private:
  struct BitmapLine {
    std::array<std::uint64_t, 8> bits{};
  };

  static constexpr std::size_t kNodesPerBitmapLine = kBlockSize * 8;  // 512

  Addr bitmap_line_addr(std::uint64_t line) const {
    return bitmap_base_ + line * kBlockSize;
  }

  /// Set/clear the dirty bit of a node, going through the ADR-resident
  /// bitmap line cache (may read/write NVM on a miss).
  void update_bitmap(NodeId id, bool dirty, Cycle& now);

  /// Set `set`'s dirty nodes changed: charge the sort, the set-MAC and the
  /// cache-tree path, and touch the set's leaf.
  void update_set_mac(std::size_t set, Cycle& now);
  std::uint64_t compute_set_mac(std::size_t set) const;
  std::uint64_t settle_tree() {
    return tree_.settle(cme_.mac(), [this](std::size_t set) { return compute_set_mac(set); });
  }

  /// Touch every set (an empty set hashes the empty message) and settle.
  std::uint64_t rebuild_tree();

  /// Splice stored LSBs onto a stale counter, adding carry if needed.
  static std::uint64_t reconstruct_counter(std::uint64_t stale, std::uint64_t lsbs);

  /// Recovery body; recover() wraps it so every exit yields a report.
  void recover_impl(RecoveryReport& result);

  Addr bitmap_base_;
  std::uint64_t bitmap_lines_;
  SetAssocCache<BitmapLine> bitmap_cache_;
  /// Upper bitmap layer (functional): one bit per bitmap line, set when the
  /// line has ever gone nonzero. A flat bitset so the hot set-bit path is a
  /// word OR; recovery scans it in ascending line order.
  std::vector<std::uint64_t> nonzero_lines_;

  CacheTree tree_;  // leaves = set-MACs, one per metadata-cache set
  std::uint64_t root_reg_ = 0;
};

}  // namespace steins
