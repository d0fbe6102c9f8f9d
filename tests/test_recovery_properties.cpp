// Property-style recovery checks: cost scaling, level ordering, and the
// eager-update ablation mode.
#include <gtest/gtest.h>

#include "schemes/steins.hpp"
#include "schemes/writeback.hpp"
#include "secure/secure_memory.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::small_config;

/// Fill the metadata cache with distinct dirty leaves (the Fig. 17
/// methodology of bench/paper_figures).
template <typename Mem>
void fill_dirty(Mem& mem, std::uint64_t leaves) {
  Cycle now = 0;
  Block data{};
  for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
    const Addr addr = leaf * mem.geometry().leaf_coverage() * kBlockSize;
    now = mem.write_block(addr, data, now);
  }
}

TEST(RecoveryCost, ScalesWithMetadataCacheSize) {
  double prev_seconds = 0.0;
  for (const std::size_t size : {16u * 1024, 32u * 1024, 64u * 1024}) {
    SteinsMemory mem(small_config(CounterMode::kGeneral, size));
    fill_dirty(mem, 2 * size / kBlockSize);
    mem.crash();
    const RecoveryResult r = mem.recover();
    ASSERT_TRUE(r.ok()) << r.attack_detail;
    EXPECT_GT(r.seconds, prev_seconds) << "recovery time must grow with cache size";
    prev_seconds = r.seconds;
  }
}

TEST(RecoveryCost, SplitLeavesCostMoreThanGeneral) {
  // SC leaves need 64 data-block reads each vs 8 for GC (paper §IV-D).
  SteinsMemory gc(small_config(CounterMode::kGeneral));
  SteinsMemory sc(small_config(CounterMode::kSplit));
  fill_dirty(gc, 512);
  fill_dirty(sc, 512);
  gc.crash();
  sc.crash();
  const RecoveryResult rg = gc.recover();
  const RecoveryResult rs = sc.recover();
  ASSERT_TRUE(rg.ok());
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(rs.nvm_reads, 3 * rg.nvm_reads);
  EXPECT_GT(rs.seconds, 3 * rg.seconds);
}

TEST(RecoveryCost, ProportionalToDirtyNodes) {
  SteinsMemory small(small_config(CounterMode::kGeneral));
  SteinsMemory large(small_config(CounterMode::kGeneral));
  fill_dirty(small, 64);
  fill_dirty(large, 512);
  small.crash();
  large.crash();
  const auto rs = small.recover();
  const auto rl = large.recover();
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rl.ok());
  EXPECT_GT(rl.nodes_recovered, rs.nodes_recovered);
  EXPECT_GT(rl.nvm_reads, rs.nvm_reads);
}

TEST(EagerUpdatePolicy, FunctionallyEquivalentToLazy) {
  SystemConfig cfg = small_config(CounterMode::kGeneral);
  cfg.update_policy = UpdatePolicy::kEager;
  WriteBackMemory mem(cfg);
  Driver d(mem);
  d.write_random(2000, 100'000);
  EXPECT_TRUE(d.check_all());
  mem.flush_all_metadata();
  mem.metadata_cache().clear();
  EXPECT_TRUE(d.check_all());
}

TEST(EagerUpdatePolicy, DirtiesMoreNodesThanLazy) {
  SystemConfig lazy_cfg = small_config(CounterMode::kGeneral, 64 * 1024);
  SystemConfig eager_cfg = lazy_cfg;
  eager_cfg.update_policy = UpdatePolicy::kEager;
  WriteBackMemory lazy(lazy_cfg);
  WriteBackMemory eager(eager_cfg);
  Driver dl(lazy), de(eager);
  dl.write_random(300, 50'000);
  de.write_random(300, 50'000);
  EXPECT_GT(testutil::dirty_snapshot(eager).size(), testutil::dirty_snapshot(lazy).size());
}

}  // namespace
}  // namespace steins
