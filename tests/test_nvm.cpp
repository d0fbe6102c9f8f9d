// NVM device + channel: functional store, tags, timing discipline, write
// queue behaviour (ring wrap-around, queued-address filter), store-forwarding.
#include <gtest/gtest.h>

#include <vector>

#include "common/config.hpp"
#include "fault/fault.hpp"
#include "nvm/nvm_device.hpp"
#include "nvm/write_queue.hpp"

namespace steins {
namespace {

Block filled(std::uint8_t v) {
  Block b;
  b.fill(v);
  return b;
}

TEST(NvmDevice, UnwrittenReadsZero) {
  NvmDevice dev(NvmConfig{});
  EXPECT_EQ(dev.read_block(0x1000), zero_block());
  EXPECT_FALSE(dev.contains(0x1000));
}

TEST(NvmDevice, WriteReadRoundTripAndStats) {
  NvmDevice dev(NvmConfig{});
  dev.write_block(0x40, filled(0xab));
  EXPECT_EQ(dev.read_block(0x40), filled(0xab));
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_GT(dev.stats().energy_nj, 0.0);
}

TEST(NvmDevice, TagsRideAlong) {
  NvmDevice dev(NvmConfig{});
  dev.write_tag(0x80, 0xdeadbeef);
  dev.write_tag2(0x80, 0x1234);
  const auto reads_before = dev.stats().reads;
  EXPECT_EQ(dev.read_tag(0x80), 0xdeadbeefu);
  EXPECT_EQ(dev.read_tag2(0x80), 0x1234u);
  EXPECT_EQ(dev.stats().reads, reads_before);  // sidecars are free
}

TEST(NvmDevice, SubBlockAddressesAlias) {
  NvmDevice dev(NvmConfig{});
  dev.write_block(0x100, filled(1));
  EXPECT_EQ(dev.read_block(0x13f), filled(1));
}

TEST(NvmDevice, WritesBeyondAddressLimitThrow) {
  NvmDevice dev(NvmConfig{});
  const Addr limit = dev.address_limit();
  EXPECT_NO_THROW(dev.write_block(limit - kBlockSize, filled(1)));
  EXPECT_THROW(dev.write_block(limit, filled(1)), std::out_of_range);
  EXPECT_THROW(dev.poke_block(limit + kBlockSize, filled(1)), std::out_of_range);
  EXPECT_THROW(dev.write_tag(limit, 1), std::out_of_range);
  EXPECT_THROW(dev.write_tag2(limit, 1), std::out_of_range);
  // Reads stay total: an out-of-range read is a zero block, not a crash,
  // so probes during recovery can never bring the device model down.
  EXPECT_EQ(dev.peek_block(limit + kBlockSize), zero_block());
}

TEST(NvmDevice, ResidentBlocksAreSortedAndBounded) {
  NvmDevice dev(NvmConfig{});
  dev.write_block(0x200, filled(1));
  dev.write_block(0x80, filled(2));
  dev.write_block(0x140, filled(3));
  dev.write_tag(0x200, 7);
  const auto blocks = dev.resident_blocks(0x100, 0x240);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], 0x140u);
  EXPECT_EQ(blocks[1], 0x200u);
  const auto tags = dev.resident_tags(0, 0x1000);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0], 0x200u);
}

// peek_resident answers contains / peek_corrected / read_tag in one probe.
void expect_peek_resident_matches(const NvmDevice& dev, Addr addr) {
  Block image;
  std::uint64_t tag = 0;
  bool dead = false;
  const bool resident = dev.peek_resident(addr, &image, &tag, &dead);
  bool uncorrectable = false;
  const Block corrected = dev.peek_corrected(addr, &uncorrectable);
  EXPECT_EQ(resident, dev.contains(addr)) << addr;
  EXPECT_EQ(image, corrected) << addr;
  EXPECT_EQ(tag, dev.read_tag(addr)) << addr;
  EXPECT_EQ(dead, uncorrectable) << addr;
}

TEST(NvmDevice, PeekResidentMatchesSeparateProbes) {
  NvmConfig cfg;
  cfg.endurance_mean_writes = 4;  // a line wears out on its 4th demand write
  cfg.wear_level_fraction = 0.0;  // no proactive migration to reset the wear
  NvmDevice dev(cfg);
  const Addr never = 0x1000, tag_only = 0x1040, clean = 0x1080, correctable = 0x10c0,
             uncorrectable = 0x1100, remapped = 0x1140, worn = 0x1180;
  dev.write_tag(tag_only, 0x77);
  for (const Addr a : {clean, correctable, uncorrectable, remapped}) {
    dev.write_block(a, filled(static_cast<std::uint8_t>(a >> 6)));
    dev.write_tag(a, a * 3);
  }
  // No line is faulted yet: the ECC-free fast path.
  for (const Addr a : {never, tag_only, clean, correctable}) {
    expect_peek_resident_matches(dev, a);
    expect_peek_resident_matches(dev, a + 5);  // sub-block addresses alias
  }

  dev.inject_ecc_error(correctable, 3, /*correctable=*/true, /*retries=*/2);
  dev.inject_ecc_error(uncorrectable, 9, /*correctable=*/false, 0);
  dev.inject_ecc_error(remapped, 11, /*correctable=*/false, 0);
  ASSERT_TRUE(dev.remap_line(remapped));
  for (int i = 0; i < 4; ++i) dev.write_block(worn, filled(0x5a));
  ASSERT_TRUE(dev.worn_out(worn));

  const auto reads = dev.stats().reads;
  for (const Addr a : {never, tag_only, clean, correctable, uncorrectable, remapped, worn}) {
    expect_peek_resident_matches(dev, a);
  }
  EXPECT_EQ(dev.stats().reads, reads);  // peeks charge no traffic

  Block image;
  std::uint64_t tag = 0;
  bool dead = true;
  EXPECT_FALSE(dev.peek_resident(never, &image, &tag, &dead));
  EXPECT_EQ(image, zero_block());
  EXPECT_EQ(tag, 0u);
  EXPECT_FALSE(dead);
  EXPECT_FALSE(dev.peek_resident(tag_only, &image, &tag, &dead));
  EXPECT_EQ(tag, 0x77u);
  EXPECT_TRUE(dev.peek_resident(correctable, &image, &tag, &dead));
  EXPECT_EQ(image, filled(static_cast<std::uint8_t>(correctable >> 6)));  // golden image
  EXPECT_FALSE(dead);
  EXPECT_TRUE(dev.peek_resident(uncorrectable, &image, &tag, &dead));
  EXPECT_TRUE(dead);
  EXPECT_FALSE(dev.peek_resident(remapped, &image, &tag, &dead));  // the spare starts blank
  EXPECT_TRUE(dev.peek_resident(worn, &image, &tag, &dead));
  EXPECT_TRUE(dead);
}

TEST(NvmChannel, ReadLatencyMatchesArrayTiming) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  Block out;
  const Cycle done = ch.read(0x40, 100, &out);
  EXPECT_EQ(done, 100 + cfg.nvm_read_cycles());
}

TEST(NvmChannel, WritesDrainInGaps) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  ch.write(0x40, filled(1), 0);
  EXPECT_EQ(ch.queue_depth(), 1u);
  // Much later, the write should have drained before the read arrives.
  Block out;
  ch.read(0x4000, 10'000'000, &out);
  EXPECT_EQ(ch.queue_depth(), 0u);
  EXPECT_TRUE(dev.contains(0x40));
}

TEST(NvmChannel, StoreForwardingReturnsQueuedData) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  ch.write(0x40, filled(7), 0);
  Block out;
  const Cycle done = ch.read(0x40, 0, &out);  // same cycle: still queued
  EXPECT_EQ(out, filled(7));
  EXPECT_LE(done, NvmChannel::kForwardCycles);
}

TEST(NvmChannel, QueueFullStallsProducer) {
  SystemConfig cfg = default_config();
  cfg.nvm.write_queue_entries = 4;
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  Cycle now = 0;
  for (int i = 0; i < 16; ++i) {
    now = ch.write(static_cast<Addr>(i) * 64, filled(1), now);
  }
  EXPECT_GT(ch.stats().write_queue_stalls, 0u);
  EXPECT_LE(ch.queue_depth(), 4u);
}

TEST(NvmChannel, DrainAllPersistsEverything) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  for (int i = 0; i < 10; ++i) ch.write(static_cast<Addr>(i) * 64, filled(2), 0);
  ch.drain_all(0);
  EXPECT_EQ(ch.queue_depth(), 0u);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(dev.contains(static_cast<Addr>(i) * 64));
}

TEST(NvmChannel, DrainIsFifoPerAddress) {
  // Same-address writes must reach the device in posting order: the last
  // posted value wins, and its tag travels in the same transaction.
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  const std::uint64_t t1 = 0x11, t2 = 0x22, t3 = 0x33;
  ch.write(0x40, filled(1), 0, nullptr, 0, &t1);
  ch.write(0x40, filled(2), 0, nullptr, 0, &t2);
  ch.write(0x40, filled(3), 0, nullptr, 0, &t3);
  ch.drain_all(0);
  EXPECT_EQ(dev.peek_block(0x40), filled(3));
  EXPECT_EQ(dev.read_tag(0x40), t3);
}

TEST(NvmChannel, PeekQueuedTagForwardsNewest) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  std::uint64_t tag = 0;
  EXPECT_FALSE(ch.peek_queued_tag(0x40, &tag));
  const std::uint64_t t1 = 0xaa, t2 = 0xbb;
  ch.write(0x40, filled(1), 0, nullptr, 0, &t1);
  ch.write(0x40, filled(2), 0, nullptr, 0, &t2);
  ch.write(0x80, filled(3), 0);  // tagless write must not shadow 0x40
  ASSERT_TRUE(ch.peek_queued_tag(0x40, &tag));
  EXPECT_EQ(tag, t2);
  ch.drain_all(0);
  EXPECT_FALSE(ch.peek_queued_tag(0x40, &tag));
}

TEST(NvmChannel, CrashDrainWithoutHookPersistsEverything) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  const std::uint64_t tag = 0x77;
  for (int i = 0; i < 6; ++i) {
    ch.write(static_cast<Addr>(i) * 64, filled(4), 0, nullptr, 0, &tag);
  }
  ch.crash_drain_all(0);
  EXPECT_EQ(ch.queue_depth(), 0u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(dev.contains(static_cast<Addr>(i) * 64));
    EXPECT_EQ(dev.read_tag(static_cast<Addr>(i) * 64), tag);
  }
}

TEST(NvmChannel, WriteLatencyAttribution) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  LatencyAccumulator acc;
  ch.write(0x40, filled(3), 100, &acc, /*birth=*/50);
  ch.drain_all(200);
  EXPECT_EQ(acc.count, 1u);
  EXPECT_GE(acc.sum, cfg.nvm_write_cycles());
}

TEST(NvmChannel, ReadAfterWriteTurnaroundPenalty) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  ch.write(0x40, filled(1), 0);
  ch.drain_all(0);  // device just finished a write
  Block out;
  const Cycle free_at = ch.device_free_at();
  const Cycle done = ch.read(0x4000, free_at, &out);
  EXPECT_EQ(done, free_at + cfg.ns_to_cycles(cfg.nvm.t_wtr_ns) + cfg.nvm_read_cycles());
}

// The write queue is a fixed ring: with 4 entries, posting at one cycle
// keeps exactly the 4 newest writes queued (each further post stalls and
// issues the oldest), so these helpers wrap the ring on purpose.
SystemConfig four_entry_config() {
  SystemConfig cfg = default_config();
  cfg.nvm.write_queue_entries = 4;
  return cfg;
}

Addr ring_addr(int i) { return 0x10000 + static_cast<Addr>(i) * 64; }

TEST(NvmChannel, RingWrapAroundKeepsFifoOrder) {
  const SystemConfig cfg = four_entry_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  constexpr int kWrites = 14;  // > 3x the capacity
  for (int i = 0; i < kWrites; ++i) ch.write(ring_addr(i), filled(static_cast<std::uint8_t>(i)), 0);
  EXPECT_EQ(ch.queue_depth(), 4u);
  EXPECT_EQ(ch.stats().write_queue_stalls, static_cast<std::uint64_t>(kWrites - 4));
  for (int i = 0; i < kWrites; ++i) {
    // Stalls issued the oldest entries, in posting order.
    EXPECT_EQ(dev.contains(ring_addr(i)), i < kWrites - 4) << i;
    EXPECT_EQ(ch.queued(ring_addr(i)), i >= kWrites - 4) << i;
  }
  ch.drain_all(0);
  EXPECT_EQ(ch.queue_depth(), 0u);
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(dev.peek_block(ring_addr(i)), filled(static_cast<std::uint8_t>(i))) << i;
  }
}

TEST(NvmChannel, ForwardsNewestEntryAfterWrap) {
  const SystemConfig cfg = four_entry_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  for (int i = 0; i < 6; ++i) ch.write(ring_addr(i), filled(9), 0);
  // The ring's head has moved past slot 0; these two land in wrapped slots.
  const std::uint64_t t1 = 0x11, t2 = 0x22;
  ch.write(0x40, filled(1), 0, nullptr, 0, &t1);
  ch.write(0x40, filled(2), 0, nullptr, 0, &t2);
  ASSERT_EQ(ch.queue_depth(), 4u);
  Block out;
  const Cycle done = ch.read(0x40, 0, &out);
  EXPECT_EQ(out, filled(2));
  EXPECT_EQ(done, NvmChannel::kForwardCycles);
  std::uint64_t tag = 0;
  ASSERT_TRUE(ch.peek_queued_tag(0x40, &tag));
  EXPECT_EQ(tag, t2);
  ch.drain_all(0);
  EXPECT_EQ(dev.peek_block(0x40), filled(2));
  EXPECT_EQ(dev.read_tag(0x40), t2);
}

TEST(NvmChannel, AddressesSharingAFilterBucketBothForward) {
  const SystemConfig cfg = default_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  const Addr a = 0x40;
  const Addr b = 0x40 + 256 * 64;  // same block number mod 256
  ch.write(b, filled(2), 0);
  // Only b is queued: a shares its bucket but must not forward.
  EXPECT_FALSE(ch.queued(a));
  Block out;
  ch.read(a, 0, &out);
  EXPECT_EQ(out, zero_block());
  ch.write(a, filled(1), 0);
  EXPECT_TRUE(ch.queued(a));
  EXPECT_TRUE(ch.queued(b));
  ch.read(a, 0, &out);
  EXPECT_EQ(out, filled(1));
  ch.read(b, 0, &out);
  EXPECT_EQ(out, filled(2));
}

TEST(NvmChannel, NothingQueuedAfterDrains) {
  const SystemConfig cfg = four_entry_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  const std::uint64_t tag = 0x5a;
  std::uint64_t got = 0;
  // drain_all, crash_drain_all without a hook, and issue as time passes.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) ch.write(ring_addr(i), filled(3), 0, nullptr, 0, &tag);
    ASSERT_TRUE(ch.queued(ring_addr(5)));
    ASSERT_TRUE(ch.peek_queued_tag(ring_addr(5), &got));
    if (round == 0) ch.drain_all(0);
    if (round == 1) ch.crash_drain_all(0);
    if (round == 2) ch.read(0x8000, ch.device_free_at() + 10'000'000, nullptr);
    EXPECT_EQ(ch.queue_depth(), 0u) << round;
    for (int i = 0; i < 6; ++i) {
      EXPECT_FALSE(ch.queued(ring_addr(i))) << round << " " << i;
      EXPECT_FALSE(ch.peek_queued_tag(ring_addr(i), &got)) << round << " " << i;
    }
  }
}

TEST(NvmChannel, FaultHookCrashDrainGetsOldestFirstAfterWrap) {
  const SystemConfig cfg = four_entry_config();
  NvmDevice dev(cfg.nvm);
  NvmChannel ch(cfg, dev);
  for (int i = 0; i < 6; ++i) ch.write(ring_addr(i), filled(4), 0);
  // ADR loss drops every queued write and logs one event per entry, in the
  // order the hook received them.
  FaultInjector injector(FaultPlan{FaultClass::kAdrLoss, 1, 1});
  ch.set_crash_fault_hook(&injector);
  ch.crash_drain_all(0);
  ch.set_crash_fault_hook(nullptr);
  std::vector<Addr> order;
  for (const FaultEvent& e : injector.events()) order.push_back(e.addr);
  EXPECT_EQ(order, (std::vector<Addr>{ring_addr(2), ring_addr(3), ring_addr(4), ring_addr(5)}));
  EXPECT_EQ(ch.queue_depth(), 0u);
  for (int i = 2; i < 6; ++i) {
    EXPECT_FALSE(ch.queued(ring_addr(i))) << i;
    EXPECT_FALSE(dev.contains(ring_addr(i))) << i;
  }
  // The ring keeps working after the hooked drain.
  ch.write(ring_addr(0), filled(5), 0);
  Block out;
  ch.read(ring_addr(0), 0, &out);
  EXPECT_EQ(out, filled(5));
}

}  // namespace
}  // namespace steins
