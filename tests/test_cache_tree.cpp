// CacheTree: the lazily settled cache-tree of ASIT and STAR. Checked
// against a naive full recompute under random touch/settle/clear sequences
// at the ASIT shape (4096 leaves), the STAR shape (512 sets) and an uneven
// 37 leaves (a partial last group on every level), plus the untouched-leaf
// and idle-settle rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "crypto/mac.hpp"
#include "secure/cache_tree.hpp"

namespace steins {
namespace {

/// The MAC engine, counting every internal-node MAC it computes.
struct CountingMac {
  const crypto::MacEngine& mac;
  mutable std::uint64_t calls = 0;
  std::uint64_t mac64(std::span<const std::uint8_t> data) const {
    ++calls;
    return mac.mac64(data);
  }
};

/// Root of a full recompute over `leaves` (arity kTreeArity, partial last
/// groups MAC'd over the children they have).
std::uint64_t naive_root(const crypto::MacEngine& mac, std::vector<std::uint64_t> level) {
  while (level.size() > 1) {
    std::vector<std::uint64_t> up;
    for (std::size_t first = 0; first < level.size(); first += kTreeArity) {
      const std::size_t n = std::min(kTreeArity, level.size() - first);
      up.push_back(mac.mac64({reinterpret_cast<const std::uint8_t*>(&level[first]), n * 8}));
    }
    level = std::move(up);
  }
  return level[0];
}

/// A scheme's leaf inputs: each leaf MACs its current input word, and a
/// leaf counts as present only once touched since the last clear().
struct Model {
  explicit Model(std::size_t leaves) : input(leaves, 0), touched(leaves, false) {}

  std::uint64_t leaf_mac(const crypto::MacEngine& mac, std::size_t i) const {
    return mac.mac64({reinterpret_cast<const std::uint8_t*>(&input[i]), 8});
  }
  std::uint64_t root(const crypto::MacEngine& mac) const {
    std::vector<std::uint64_t> leaves(input.size(), 0);
    for (std::size_t i = 0; i < input.size(); ++i) {
      if (touched[i]) leaves[i] = leaf_mac(mac, i);
    }
    return naive_root(mac, leaves);
  }

  std::vector<std::uint64_t> input;
  std::vector<bool> touched;
};

void check_random_sequence(std::size_t leaves, std::uint64_t seed) {
  const crypto::MacEngine mac(seed);
  CacheTree tree(leaves);
  Model model(leaves);
  Xoshiro256 rng(seed);
  std::uint64_t settles = 0;
  std::size_t i = 0;
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t pick = rng.below(100);
    if (pick < 90) {
      // Touches near the last one as well as scattered ones, so paths both
      // share ancestors and diverge.
      i = static_cast<std::size_t>(rng.chance(0.5) ? (i + rng.below(16)) % leaves
                                                   : rng.below(leaves));
      model.input[i] = rng.next();
      model.touched[i] = true;
      tree.touch(i);
    } else if (pick < 98) {
      const std::uint64_t root =
          tree.settle(mac, [&](std::size_t l) { return model.leaf_mac(mac, l); });
      ASSERT_EQ(root, model.root(mac)) << leaves << " leaves, op " << op;
      EXPECT_TRUE(tree.settled());
      ++settles;
    } else {
      tree.clear();
      model.touched.assign(leaves, false);
    }
  }
  EXPECT_GT(settles, 100u);
}

TEST(CacheTree, MatchesFullRecomputeAtAsitShape) { check_random_sequence(4096, 1); }

TEST(CacheTree, MatchesFullRecomputeAtStarShape) { check_random_sequence(512, 2); }

TEST(CacheTree, MatchesFullRecomputeWithPartialGroups) { check_random_sequence(37, 3); }

TEST(CacheTree, DepthCountsLevelsWithTheLeaves) {
  EXPECT_EQ(CacheTree(4096).depth(), 5u);  // 4096, 512, 64, 8, 1
  EXPECT_EQ(CacheTree(512).depth(), 4u);   // 512, 64, 8, 1
  EXPECT_EQ(CacheTree(37).depth(), 3u);    // 37, 5, 1
  EXPECT_EQ(CacheTree(1).depth(), 1u);     // the leaf is the root
}

TEST(CacheTree, UntouchedLeafReadsZeroAndTouchedEmptySetHashesEmptyMessage) {
  const crypto::MacEngine mac(9);
  const std::uint64_t empty_set_mac = mac.mac64({});
  ASSERT_NE(empty_set_mac, 0u);
  CacheTree tree(512);
  tree.clear();
  // The leaf function must never run for a leaf nobody touched.
  const auto star_leaf = [&](std::size_t i) {
    EXPECT_EQ(i, 5u) << "untouched leaf recomputed";
    return empty_set_mac;
  };
  tree.touch(5);
  const std::uint64_t root = tree.settle(mac, star_leaf);

  std::vector<std::uint64_t> leaves(512, 0);
  EXPECT_NE(root, naive_root(mac, leaves)) << "a touched empty set is not a zero leaf";
  leaves[5] = empty_set_mac;
  EXPECT_EQ(root, naive_root(mac, leaves));
}

TEST(CacheTree, IdleSettleReturnsSameRootWithoutMacs) {
  const crypto::MacEngine mac(4);
  Model model(4096);
  CacheTree tree(4096);
  const auto leaf = [&](std::size_t i) { return model.leaf_mac(mac, i); };
  for (std::size_t i = 0; i < 4096; i += 37) {
    model.input[i] = i * 3 + 1;
    model.touched[i] = true;
    tree.touch(i);
  }
  CountingMac counting{mac};
  const std::uint64_t first = tree.settle(counting, leaf);
  EXPECT_GT(counting.calls, 0u);
  EXPECT_EQ(first, model.root(mac));

  counting.calls = 0;
  std::uint64_t leaf_calls = 0;
  const std::uint64_t again = tree.settle(counting, [&](std::size_t i) {
    ++leaf_calls;
    return leaf(i);
  });
  EXPECT_EQ(again, first);
  EXPECT_EQ(counting.calls, 0u);
  EXPECT_EQ(leaf_calls, 0u);

  // One touch after a settle recomputes one path: a MAC per internal level.
  model.input[100] = 7;
  model.touched[100] = true;
  tree.touch(100);
  tree.touch(100);  // touching twice queues the leaf once
  leaf_calls = 0;
  const std::uint64_t after = tree.settle(counting, [&](std::size_t i) {
    ++leaf_calls;
    return leaf(i);
  });
  EXPECT_EQ(after, model.root(mac));
  EXPECT_EQ(leaf_calls, 1u);
  EXPECT_EQ(counting.calls, tree.depth() - 1u);
}

TEST(CacheTree, SettledUntilTouchedAndAfterClear) {
  CacheTree tree(64);
  EXPECT_TRUE(tree.settled());
  tree.touch(3);
  EXPECT_FALSE(tree.settled());
  tree.clear();
  EXPECT_TRUE(tree.settled()) << "a lost body has nothing left to settle";
}

}  // namespace
}  // namespace steins
