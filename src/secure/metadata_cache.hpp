// The memory controller's metadata cache (paper Table I: 256 KB, 8-way,
// LRU, 64 B lines). Caches decoded SIT nodes; cached nodes are trusted
// (verified on fill) and carry a dirty bit.
#pragma once

#include "cache/cache.hpp"
#include "sit/node.hpp"

namespace steins {

using MetadataCache = SetAssocCache<SitNode>;
using MetadataLine = MetadataCache::Line;
// 4096 lines per controller at Table I's 256 KB.
static_assert(sizeof(MetadataLine) <= 120, "a metadata line is 24 B of tag state plus one node");

}  // namespace steins
