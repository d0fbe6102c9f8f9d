// Recovery-time attack detection (paper §III-D / §III-H): tampering is
// caught by HMACs, replay by the LIncs / cache-tree roots, record forgery
// by the LInc comparison.
#include <gtest/gtest.h>

#include <cstring>

#include "schemes/anubis.hpp"
#include "schemes/attack.hpp"
#include "schemes/star.hpp"
#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::dirty_snapshot;
using testutil::small_config;

/// Find a dirty internal node (level >= 1) whose first child exists in NVM.
/// Returns false if none exists.
bool find_dirty_internal_with_child(SecureMemoryBase& mem, NodeId* node, NodeId* child) {
  bool found = false;
  const SitGeometry& geo = mem.geometry();
  mem.metadata_cache().for_each([&](const MetadataLine& line) {
    if (found || !line.dirty || line.payload.id.level == 0) return;
    const NodeId id = line.payload.id;
    for (std::size_t j = 0; j < geo.num_children(id); ++j) {
      const NodeId c = geo.child_of(id, j);
      if (mem.device().contains(geo.node_addr(c))) {
        *node = id;
        *child = c;
        found = true;
        return;
      }
    }
  });
  return found;
}

TEST(SteinsAttacks, TamperedChildDetectedDuringRecovery) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(3000, 150'000);
  NodeId node, child;
  ASSERT_TRUE(find_dirty_internal_with_child(mem, &node, &child));

  mem.crash();
  AttackInjector attacker(mem);
  attacker.tamper_node(child, 10);
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
  EXPECT_NE(r.attack_detail.find("tamper"), std::string::npos) << r.attack_detail;
}

TEST(SteinsAttacks, ReplayedChildDetectedDuringRecovery) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem, 7);
  d.write_random(1500, 120'000);
  // Snapshot a persisted child of a future dirty node, then advance it.
  NodeId node, child;
  ASSERT_TRUE(find_dirty_internal_with_child(mem, &node, &child));
  AttackInjector attacker(mem);
  attacker.record_node(child);

  // Keep writing: the child's persistent version advances as it gets
  // evicted and re-flushed.
  d.write_random(3000, 120'000);
  mem.crash();

  // Only replay if the child's image actually changed; otherwise the
  // snapshot is a no-op and no attack happened.
  const Addr caddr = mem.geometry().node_addr(child);
  const Block current = mem.device().peek_block(caddr);
  ASSERT_TRUE(attacker.replay_block(caddr));
  if (mem.device().peek_block(caddr) == current) {
    GTEST_SKIP() << "child image did not advance; replay is a no-op";
  }
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected) << "replayed child must not verify";
}

TEST(SteinsAttacks, ErasedRecordsDetected) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(2000, 120'000);
  Cycle t = d.now();
  mem.drain_nv_buffer(t);
  const auto dirty = dirty_snapshot(mem);
  ASSERT_FALSE(dirty.empty());
  mem.crash();

  // Forge the record region: mark everything clean (dirty -> clean attack,
  // §III-H). The per-level increments then sum to less than the LIncs.
  AttackInjector attacker(mem);
  const Addr base = mem.geometry().aux_base();
  const std::size_t lines = (mem.metadata_cache().num_lines() + 15) / 16;
  for (std::size_t i = 0; i < lines; ++i) {
    attacker.overwrite_block(base + i * kBlockSize, zero_block());
  }
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
  EXPECT_NE(r.attack_detail.find("LInc"), std::string::npos) << r.attack_detail;
}

TEST(SteinsAttacks, MarkingCleanNodesDirtyIsHarmless) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  // Small enough that some metadata-cache lines were never dirtied, leaving
  // empty record slots to forge.
  d.write_random(200, 100'000);
  Cycle t = d.now();
  mem.drain_nv_buffer(t);
  const auto dirty_before = dirty_snapshot(mem);
  mem.crash();

  // Forge extra record entries pointing at clean nodes (clean -> dirty
  // direction, §III-H): recovery must still succeed, with increment 0 for
  // the clean nodes.
  AttackInjector attacker(mem);
  const SitGeometry& geo = mem.geometry();
  const Addr base = geo.aux_base();
  const std::size_t lines = (mem.metadata_cache().num_lines() + 15) / 16;
  // Point empty record slots (any line) at clean leaves that exist in NVM.
  int planted = 0;
  std::uint64_t leaf = 0;
  for (std::size_t li = 0; li < lines && planted < 2; ++li) {
    const Addr laddr = base + li * kBlockSize;
    Block forged = mem.device().peek_block(laddr);
    bool changed = false;
    for (std::size_t s = 0; s < 16 && planted < 2; ++s) {
      std::uint32_t off;
      std::memcpy(&off, forged.data() + s * 4, 4);
      if (off != 0) continue;
      // Find the next clean, persisted leaf to plant.
      for (; leaf < geo.level_count(0); ++leaf) {
        const NodeId id{0, leaf};
        if (!mem.device().contains(geo.node_addr(id))) continue;
        if (dirty_before.contains(geo.offset_of(id))) continue;
        off = geo.offset_of(id) + 1;
        std::memcpy(forged.data() + s * 4, &off, 4);
        ++planted;
        changed = true;
        ++leaf;
        break;
      }
    }
    if (changed) attacker.overwrite_block(laddr, forged);
  }
  ASSERT_GT(planted, 0);

  const RecoveryResult r = mem.recover();
  EXPECT_FALSE(r.attack_detected) << r.attack_detail;
  EXPECT_TRUE(d.check_all());
}

TEST(SteinsAttacks, ReplayedDataBlockDetected) {
  SteinsMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write(77);
  mem.flush_all_metadata();
  AttackInjector attacker(mem);
  attacker.record_block(77 * kBlockSize);
  // Advance the block so its leaf is dirty at crash time.
  d.write(77);
  d.write(77);
  mem.crash();
  ASSERT_TRUE(attacker.replay_block(77 * kBlockSize));
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
}

TEST(AnubisAttacks, TamperedShadowEntryDetected) {
  AnubisMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(1500, 100'000);
  mem.crash();
  AttackInjector attacker(mem);
  // The shadow table starts at aux_base; corrupt one entry that exists.
  const Addr base = mem.geometry().aux_base();
  for (std::size_t i = 0; i < mem.metadata_cache().num_lines(); ++i) {
    if (mem.device().contains(base + i * kBlockSize)) {
      attacker.tamper_block(base + i * kBlockSize, 8);
      break;
    }
  }
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
  EXPECT_NE(r.attack_detail.find("root"), std::string::npos) << r.attack_detail;
}

TEST(AnubisAttacks, ShadowTamperBeforeCrashDetected) {
  // The leaf MACs cover the images ASIT wrote, staged on-chip, never what
  // NVM holds when the crash latches the root: a shadow entry tampered
  // after its modification but before the crash still breaks the root.
  AnubisMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(1500, 100'000);
  mem.channel().drain_all(d.now());  // every shadow write has landed
  AttackInjector attacker(mem);
  const Addr base = mem.geometry().aux_base();
  bool tampered = false;
  for (std::size_t i = 0; i < mem.metadata_cache().num_lines() && !tampered; ++i) {
    if (mem.device().contains(base + i * kBlockSize)) {
      attacker.tamper_block(base + i * kBlockSize, 8);
      tampered = true;
    }
  }
  ASSERT_TRUE(tampered);
  mem.crash();
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
  EXPECT_NE(r.attack_detail.find("root"), std::string::npos) << r.attack_detail;
}

TEST(StarAttacks, ForgedBitmapDetected) {
  StarMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem);
  d.write_random(1500, 100'000);
  const auto dirty = dirty_snapshot(mem);
  ASSERT_FALSE(dirty.empty());
  mem.crash();

  // Clear the bitmap line covering one dirty node (dirty -> clean forgery):
  // the recovered dirty set then disagrees with the cache-tree root.
  AttackInjector attacker(mem);
  const auto& [offset, node] = *dirty.begin();
  const Addr base = mem.geometry().aux_base();
  const Addr line_addr = base + (offset / 512) * kBlockSize;
  Block line = mem.device().peek_block(line_addr);
  const std::size_t bit = offset % 512;
  line[bit / 8] = static_cast<std::uint8_t>(line[bit / 8] & ~(1u << (bit % 8)));
  attacker.overwrite_block(line_addr, line);
  (void)node;

  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
}

TEST(StarAttacks, ReplayedChildLsbsDetected) {
  StarMemory mem(small_config(CounterMode::kGeneral));
  Driver d(mem, 11);
  d.write_random(1500, 120'000);
  NodeId node, child;
  ASSERT_TRUE(find_dirty_internal_with_child(mem, &node, &child));
  AttackInjector attacker(mem);
  attacker.record_node(child);
  d.write_random(3000, 120'000);
  mem.crash();
  const Addr caddr = mem.geometry().node_addr(child);
  const Block current = mem.device().peek_block(caddr);
  ASSERT_TRUE(attacker.replay_block(caddr));
  if (mem.device().peek_block(caddr) == current) {
    GTEST_SKIP() << "child image did not advance; replay is a no-op";
  }
  const RecoveryResult r = mem.recover();
  EXPECT_TRUE(r.attack_detected);
}

}  // namespace
}  // namespace steins
