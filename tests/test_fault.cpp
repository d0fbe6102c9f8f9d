// Fault-injection engine unit tests: plan derivation, class parsing, the
// crash-drain fates (torn / dropped / reordered / ADR loss), post-crash
// bit-flip determinism, and single-trial reproduction.
#include <gtest/gtest.h>

#include <cstring>

#include "common/config.hpp"
#include "fault/campaign.hpp"
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

SystemConfig small_config() {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = std::uint64_t{4} << 20;
  return cfg;
}

/// Queue `n` tagged writes of `newv` over pre-existing `oldv` lines, then
/// crash-drain through an injector with the given plan.
FaultInjector crash_drain(const FaultPlan& plan, NvmDevice& dev, int n,
                          const Block& oldv, const Block& newv) {
  const SystemConfig cfg = default_config();
  NvmChannel ch(cfg, dev);
  FaultInjector injector(plan);
  ch.set_crash_fault_hook(&injector);
  for (int i = 0; i < n; ++i) {
    const Addr addr = static_cast<Addr>(i) * 64;
    dev.poke_block(addr, oldv);
    dev.write_tag(addr, 0x0101);
    const std::uint64_t tag = 0x9999;
    ch.write(addr, newv, 0, nullptr, 0, &tag);
  }
  ch.crash_drain_all(0);
  EXPECT_EQ(ch.queue_depth(), 0u);
  return injector;
}

TEST(FaultPlan, DerivationIsPureAndClassSeparated) {
  const FaultPlan a = FaultPlan::derive(FaultClass::kTornWrite, 42, 7);
  const FaultPlan b = FaultPlan::derive(FaultClass::kTornWrite, 42, 7);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.intensity, b.intensity);
  EXPECT_GE(a.intensity, 1u);
  // Different trial or class must draw a different fault stream.
  EXPECT_NE(a.seed, FaultPlan::derive(FaultClass::kTornWrite, 42, 8).seed);
  EXPECT_NE(a.seed, FaultPlan::derive(FaultClass::kBitFlipData, 42, 7).seed);
}

TEST(FaultClassNames, RoundTripAndAliases) {
  for (const FaultClass cls : all_fault_classes()) {
    const auto parsed = parse_fault_class(fault_class_name(cls));
    ASSERT_TRUE(parsed.has_value()) << fault_class_name(cls);
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_EQ(all_fault_classes().size(), 10u);  // kNone excluded
  EXPECT_EQ(parse_fault_class("torn"), FaultClass::kTornWrite);
  EXPECT_EQ(parse_fault_class("adr"), FaultClass::kAdrLoss);
  EXPECT_EQ(parse_fault_class("mac"), FaultClass::kBitFlipMac);
  EXPECT_EQ(parse_fault_class("cflip"), FaultClass::kCorrectableFlip);
  EXPECT_EQ(parse_fault_class("none"), FaultClass::kNone);
  EXPECT_FALSE(parse_fault_class("bogus").has_value());
}

TEST(FaultInjector, TornWriteMixesOldAndNewAndKeepsOldTag) {
  NvmDevice dev(NvmConfig{});
  FaultPlan plan;
  plan.cls = FaultClass::kTornWrite;
  plan.seed = 0xfeed;
  plan.intensity = 1;
  const FaultInjector injector = crash_drain(plan, dev, 4, filled(0xaa), filled(0x55));
  ASSERT_EQ(injector.events().size(), 1u);
  const FaultEvent& e = injector.events()[0];
  EXPECT_EQ(e.kind, FaultEvent::Kind::kTear);
  const Block torn = dev.peek_block(e.addr);
  int old_words = 0, new_words = 0;
  for (int w = 0; w < 8; ++w) {
    if (std::memcmp(torn.data() + w * 8, filled(0xaa).data(), 8) == 0) ++old_words;
    if (std::memcmp(torn.data() + w * 8, filled(0x55).data(), 8) == 0) ++new_words;
  }
  EXPECT_EQ(old_words + new_words, 8);
  EXPECT_GT(old_words, 0);  // never all-new
  EXPECT_GT(new_words, 0);  // never all-old
  // The transaction did not complete: the old ECC-colocated tag survives.
  EXPECT_EQ(dev.read_tag(e.addr), 0x0101u);
}

TEST(FaultInjector, AdrLossDropsTheWholeQueue) {
  NvmDevice dev(NvmConfig{});
  FaultPlan plan;
  plan.cls = FaultClass::kAdrLoss;
  plan.seed = 1;
  const FaultInjector injector = crash_drain(plan, dev, 5, filled(0xaa), filled(0x55));
  EXPECT_EQ(injector.events().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dev.peek_block(static_cast<Addr>(i) * 64), filled(0xaa));
    EXPECT_EQ(dev.read_tag(static_cast<Addr>(i) * 64), 0x0101u);
  }
}

TEST(FaultInjector, DroppedPersistLosesAtLeastOneWrite) {
  NvmDevice dev(NvmConfig{});
  FaultPlan plan;
  plan.cls = FaultClass::kDroppedPersist;
  plan.seed = 0xd10f;
  const FaultInjector injector = crash_drain(plan, dev, 6, filled(0xaa), filled(0x55));
  std::size_t dropped = 0;
  for (const FaultEvent& e : injector.events()) {
    if (e.kind == FaultEvent::Kind::kDrop) {
      ++dropped;
      EXPECT_EQ(dev.peek_block(e.addr), filled(0xaa));  // old data survives
    }
  }
  EXPECT_GE(dropped, 1u);
  EXPECT_LT(dropped, 7u);
}

TEST(FaultInjector, ReorderedPersistCommitsPartialPermutation) {
  NvmDevice dev(NvmConfig{});
  FaultPlan plan;
  plan.cls = FaultClass::kReorderedPersist;
  plan.seed = 0x5eed;
  const FaultInjector injector = crash_drain(plan, dev, 8, filled(0xaa), filled(0x55));
  std::size_t committed = 0;
  for (int i = 0; i < 8; ++i) {
    if (dev.peek_block(static_cast<Addr>(i) * 64) == filled(0x55)) ++committed;
  }
  EXPECT_GE(committed, 1u);  // at least one write drained before power died
  EXPECT_FALSE(injector.events().empty());
}

TEST(FaultInjector, PostCrashFlipsAreDeterministic) {
  const auto run_events = [] {
    const SystemConfig cfg = small_config();
    std::unique_ptr<SecureMemory> mem = make_scheme(Scheme::kSteins, cfg);
    Cycle now = 0;
    for (int i = 0; i < 32; ++i) {
      now = mem->write_block(static_cast<Addr>(i) * 64, filled(static_cast<std::uint8_t>(i)),
                             now);
    }
    dynamic_cast<SecureMemoryBase*>(mem.get())->flush_all_metadata();
    mem->crash();
    FaultPlan plan;
    plan.cls = FaultClass::kBitFlipCounter;
    plan.seed = 0xc0ffee;
    plan.intensity = 3;
    FaultInjector injector(plan);
    injector.apply_post_crash(*mem);
    return injector.event_summary(100);
  };
  const std::string first = run_events();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_events());
}

TEST(FaultInjector, CorrectableFlipsStayWithinTheEccBudget) {
  const SystemConfig cfg = small_config();
  std::unique_ptr<SecureMemory> mem = make_scheme(Scheme::kSteins, cfg);
  Cycle now = 0;
  for (int i = 0; i < 32; ++i) {
    now = mem->write_block(static_cast<Addr>(i) * 64,
                           filled(static_cast<std::uint8_t>(i)), now);
  }
  dynamic_cast<SecureMemoryBase*>(mem.get())->flush_all_metadata();
  mem->crash();
  FaultPlan plan;
  plan.cls = FaultClass::kCorrectableFlip;
  plan.seed = 0xab5019;
  plan.intensity = 4;
  FaultInjector injector(plan);
  injector.apply_post_crash(*mem);
  ASSERT_FALSE(injector.events().empty());
  // Every event is a correctable fault, and ECC recovers the golden image:
  // peeking through ECC returns the pre-fault content for every target.
  NvmDevice& dev = mem->device();
  for (const FaultEvent& e : injector.events()) {
    EXPECT_EQ(e.kind, FaultEvent::Kind::kCorrectable);
    bool uncorrectable = true;
    (void)dev.peek_corrected(e.addr, &uncorrectable);
    EXPECT_FALSE(uncorrectable) << "addr " << e.addr;
  }
}

TEST(FaultTrial, SingleTrialReproducesBitForBit) {
  const SchemeSpec spec{Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"};
  FaultTrialOptions workload;
  workload.ops = 96;
  workload.footprint_blocks = 256;
  workload.capacity_mb = 4;
  const TrialOutcome a =
      run_fault_trial(spec, FaultClass::kTornWrite, 42, 17, workload);
  const TrialOutcome b =
      run_fault_trial(spec, FaultClass::kTornWrite, 42, 17, workload);
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_NE(a.verdict, FaultVerdict::kSilentCorruption);
}

}  // namespace
}  // namespace steins
