// Scheme-specific tracking structures: ASIT's shadow-table write
// amplification, STAR's bitmap-vs-dirty-set equivalence, Steins' pending
// parent counters.
#include <gtest/gtest.h>

#include <set>

#include "schemes/anubis.hpp"
#include "schemes/star.hpp"
#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::dirty_snapshot;
using testutil::small_config;

TEST(AnubisTracking, ShadowWritesDoubleTheTraffic) {
  // Every modification of a cached node persists a shadow entry, so the
  // shadow traffic is at least one write per data write (paper §II-D:
  // "incurring 2x memory writes").
  AnubisMemory mem(small_config(CounterMode::kGeneral, 256 * 1024));
  Driver d(mem);
  const int writes = 2000;
  for (int i = 0; i < writes; ++i) d.write(d.rng().below(20'000));
  EXPECT_GE(mem.stats().aux_writes, static_cast<std::uint64_t>(writes));
}

TEST(AnubisTracking, CacheTreeDepthMatchesCacheSize) {
  // 256 KB cache = 4096 lines -> 4096, 512, 64, 8, 1 = 5 levels (the
  // "4-level cache-tree" above the leaf MACs).
  AnubisMemory mem(small_config(CounterMode::kGeneral, 256 * 1024));
  EXPECT_EQ(mem.cache_tree_depth(), 5u);
}

TEST(StarTracking, CacheTreeDepthMatchesSetCount) {
  // 256 KB cache = 4096 lines in 8-way sets -> 512 set-MACs, 64, 8, 1.
  StarMemory mem(small_config(CounterMode::kGeneral, 256 * 1024));
  ASSERT_EQ(mem.metadata_cache().num_sets(), 512u);
  EXPECT_EQ(mem.cache_tree_depth(), 4u);
}

/// A second power loss before recovery ran must leave the root register
/// as the first one latched it: the lost tree body has nothing to settle.
template <typename Scheme>
void crash_crash_recover_detects_no_attack() {
  Scheme mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(1500, 100'000);
  mem.crash();
  mem.crash();
  RecoveryResult r = mem.recover();
  EXPECT_FALSE(r.attack_detected) << r.attack_detail;
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_TRUE(d.check_all());
  // And again after recovery modified the tree: the next crash latches it.
  d.write_random(500, 100'000);
  mem.crash();
  mem.crash();
  r = mem.recover();
  EXPECT_FALSE(r.attack_detected) << r.attack_detail;
  EXPECT_TRUE(d.check_all());
}

TEST(AnubisTracking, CrashCrashRecoverDetectsNoAttack) {
  crash_crash_recover_detects_no_attack<AnubisMemory>();
}

TEST(StarTracking, CrashCrashRecoverDetectsNoAttack) {
  crash_crash_recover_detects_no_attack<StarMemory>();
}

TEST(StarTracking, BitmapEqualsDirtySetAtCrash) {
  StarMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(2500, 120'000);
  const auto dirty = dirty_snapshot(mem);
  mem.crash();

  const SitGeometry& geo = mem.geometry();
  std::set<std::uint64_t> marked;
  const Addr base = geo.aux_base();
  const std::uint64_t lines = (geo.total_nodes() + 511) / 512;
  for (std::uint64_t l = 0; l < lines; ++l) {
    const Block b = mem.device().peek_block(base + l * kBlockSize);
    for (std::size_t byte = 0; byte < kBlockSize; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        if (b[byte] & (1u << bit)) marked.insert(l * 512 + byte * 8 + bit);
      }
    }
  }
  for (const auto& [off, node] : dirty) {
    EXPECT_TRUE(marked.contains(off))
        << "dirty L" << node.id.level << " i" << node.id.index << " unmarked";
  }
  for (const auto off : marked) {
    EXPECT_TRUE(dirty.contains(off)) << "stale mark at offset " << off;
  }
}

TEST(StarTracking, BitmapUpdatesOnBothTransitions) {
  // STAR pays for dirty->clean transitions too (paper §II-D); Steins does
  // not. Compare aux traffic on an eviction-heavy stream.
  StarMemory star(small_config(CounterMode::kGeneral, 8 * 1024));
  SteinsMemory steins_mem(small_config(CounterMode::kGeneral, 8 * 1024));
  Driver ds(star), dt(steins_mem);
  ds.write_random(3000, 150'000);
  dt.write_random(3000, 150'000);
  const auto star_aux = star.stats().aux_reads + star.stats().aux_writes;
  const auto steins_aux = steins_mem.stats().aux_reads + steins_mem.stats().aux_writes +
                          steins_mem.stats().aux_write_bytes / kBlockSize;
  EXPECT_GT(star_aux, steins_aux);
}

TEST(SteinsTracking, PendingParentCounterVisibleUntilDrained) {
  SteinsMemory mem(small_config(CounterMode::kGeneral, 8 * 1024));
  Driver d(mem);
  // Churn until the NV buffer holds something.
  int i = 0;
  while (mem.nv_buffer_entries() == 0 && i < 20000) {
    d.write(d.rng().below(200'000));
    ++i;
  }
  ASSERT_GT(mem.nv_buffer_entries(), 0u) << "workload never parked a parent counter";
  Cycle t = d.now();
  mem.drain_nv_buffer(t);
  EXPECT_EQ(mem.nv_buffer_entries(), 0u);
  // Everything still verifies after the drain.
  EXPECT_TRUE(d.check_all());
}

TEST(SteinsTracking, RecordBytesStayTiny) {
  // The paper's headline: record maintenance is nearly free. Partial-write
  // bytes must stay well below 1% of data traffic on a hot workload.
  SteinsMemory mem(small_config(CounterMode::kGeneral, 256 * 1024));
  Driver d(mem);
  for (int i = 0; i < 5000; ++i) d.write(d.rng().below(20'000));
  const double record_blocks =
      static_cast<double>(mem.stats().aux_write_bytes) / kBlockSize;
  EXPECT_LT(record_blocks, 0.05 * static_cast<double>(mem.stats().data_writes));
}

}  // namespace
}  // namespace steins
