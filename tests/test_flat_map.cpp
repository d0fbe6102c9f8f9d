// FlatMap: the open-addressed table behind the truth store and the
// recovery scratch maps. Checked against std::unordered_map across several
// slot-table growths, plus its stable-reference and insertion-order
// contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace steins {
namespace {

TEST(FlatMap, MatchesUnorderedMapAcrossGrowths) {
  // A 16-slot start and ~7k distinct keys force ten doublings of the slot table.
  FlatMap<std::uint64_t> map(16);
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  std::vector<std::uint64_t> order;  // first-insertion order
  SplitMix64 rng(7);
  for (int op = 0; op < 20000; ++op) {
    // Narrow key range so lookups hit existing keys as often as not.
    const std::uint64_t key = rng.next() % 10000 * 64;
    if (op % 3 == 0) {
      const std::uint64_t* got = map.find(key);
      const auto it = model.find(key);
      ASSERT_EQ(got != nullptr, it != model.end()) << "key " << key;
      if (got != nullptr) {
        EXPECT_EQ(*got, it->second);
      }
      continue;
    }
    const bool fresh = model.find(key) == model.end();
    std::uint64_t& v = map.get_or_create(key);
    if (fresh) {
      EXPECT_EQ(v, 0u) << "first touch default-constructs";
      order.push_back(key);
    }
    v += static_cast<std::uint64_t>(op);
    model[key] += static_cast<std::uint64_t>(op);
    ASSERT_EQ(map.size(), model.size());
  }
  ASSERT_GT(map.size(), 2000u);

  std::vector<std::uint64_t> visited;
  map.for_each([&](std::uint64_t key, std::uint64_t& value) {
    visited.push_back(key);
    EXPECT_EQ(value, model.at(key)) << "key " << key;
  });
  EXPECT_EQ(visited, order) << "for_each visits each key once, in insertion order";

  const auto& cmap = map;
  std::size_t n = 0;
  cmap.for_each([&](std::uint64_t key, const std::uint64_t&) { EXPECT_EQ(key, order[n++]); });
  EXPECT_EQ(n, order.size());
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(cmap.contains(key));
    EXPECT_EQ(*cmap.find(key), value);
  }
  EXPECT_FALSE(cmap.contains(64 * 10000));
}

TEST(FlatMap, ReferencesSurviveInsertions) {
  FlatMap<Block> map(16);
  Block& first = map.get_or_create(0);
  first[0] = 0xab;
  first[63] = 0xcd;
  const Block* before = map.find(0);
  for (std::uint64_t k = 1; k <= 10000; ++k) map.get_or_create(k * kBlockSize)[0] = 1;
  EXPECT_EQ(map.find(0), before) << "no insertion moves a value";
  EXPECT_EQ(&map.get_or_create(0), &first);
  EXPECT_EQ(first[0], 0xab);
  EXPECT_EQ(first[63], 0xcd);
  EXPECT_EQ(map.size(), 10001u);
}

TEST(FlatMap, ClearForgetsEveryKey) {
  FlatMap<std::uint64_t> map(16);
  for (std::uint64_t k = 0; k < 100; ++k) map.get_or_create(k) = k + 1;
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(map.find(k), nullptr);
  int visits = 0;
  map.for_each([&](std::uint64_t, std::uint64_t&) { ++visits; });
  EXPECT_EQ(visits, 0);
  // Reused chunk storage still hands out default-constructed values.
  EXPECT_EQ(map.get_or_create(5), 0u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, AllOnesKeyThrows) {
  FlatMap<std::uint64_t> map;
  const std::uint64_t all_ones = ~std::uint64_t{0};
  EXPECT_THROW(map.get_or_create(all_ones), StatusError);
  EXPECT_THROW((void)map.find(all_ones), StatusError);
  EXPECT_TRUE(map.empty());
}

}  // namespace
}  // namespace steins
