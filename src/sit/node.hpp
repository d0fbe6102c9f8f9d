// A SIT node: a 56-byte counter payload plus a 64-bit HMAC, packed into one
// 64 B block. Internal nodes always carry a GeneralCounterBlock; leaf nodes
// carry either a general or a split block depending on the scheme variant.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sit/counter_block.hpp"
#include "sit/geometry.hpp"

namespace steins {

struct SitNode {
  // Zeroing the SC view zeroes all 72 bytes, so a default node reads as
  // zero through either view (a leaf may be flipped to split afterwards).
  SitNode() : sc{} {}

  NodeId id;
  bool split = false;  // true only for SC-mode leaves
  // A node holds one counter block, so the two views share one 72-byte
  // storage; `split` says which one is live.
  union {
    GeneralCounterBlock gc;
    SplitCounterBlock sc;
  };

  /// The Steins parent-counter value of this node (Eq. 1 / Eq. 2).
  std::uint64_t parent_value() const { return split ? sc.parent_value() : gc.parent_value(); }

  /// 56-byte counter payload (HMAC input and NVM image prefix).
  NodePayload payload() const { return split ? sc.encode() : gc.encode(); }

  /// Pack payload + HMAC into the 64 B NVM image.
  Block to_block(std::uint64_t hmac) const;

  /// Unpack a 64 B NVM image; `*hmac_out` receives the stored HMAC.
  static SitNode from_block(NodeId id, bool split, const Block& image,
                            std::uint64_t* hmac_out = nullptr);

  bool counters_equal(const SitNode& other) const {
    return split == other.split && (split ? sc == other.sc : gc == other.gc);
  }
};

static_assert(sizeof(GeneralCounterBlock) <= sizeof(SplitCounterBlock),
              "the SC view's initializer must cover the GC view");
// Every metadata-cache line and recovery-map entry holds one node.
static_assert(sizeof(SitNode) <= 96, "SitNode grew past one shared counter storage");

/// Extract just the stored HMAC from a node image.
std::uint64_t node_image_hmac(const Block& image);

}  // namespace steins
