// Adversarial scenario engine + wear model + quarantine-exhaustion tests
// (fast tier). The heavy whole-matrix sweeps live in
// test_attack_campaign.cpp under the `campaign` label; this file pins the
// DESIGN.md §III-H layer contract — replays are caught by the LInc layer,
// tampered nodes by the HMAC layer — on small per-trial workloads, plus
// the per-cell wear model and the spare-pool-exhaustion degradation path.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/adversary.hpp"
#include "fault/endurance.hpp"
#include "kv/kv_crash.hpp"
#include "kv/kv_store.hpp"
#include "nvm/nvm_device.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::Driver;
using testutil::pattern_block;
using testutil::small_config;

/// Small per-trial workload: big enough that the checkpoint flush persists
/// metadata the adversary can replay around, small enough for the fast tier.
FaultTrialOptions small_workload() {
  FaultTrialOptions w;
  w.ops = 96;
  w.footprint_blocks = 256;
  w.capacity_mb = 8;
  return w;
}

SchemeSpec spec_of(Scheme s) {
  return {s, CounterMode::kGeneral, scheme_name(s, CounterMode::kGeneral)};
}

// The detection layers DESIGN.md §III-H assigns to replayed/forged state
// (LInc sums, cache-tree roots) and to tampered images (node/data HMACs,
// parent verification) — plus the demand/patrol paths that may fire first.
const std::set<std::string> kReplayOrTamperLayers = {
    "recovery-linc", "recovery-hmac", "read", "scrub"};

TEST(AdversaryScenarios, NamesRoundTripAndAliasesParse) {
  EXPECT_EQ(all_adversary_scenarios().size(), 7u);
  for (const AdversaryScenario s : all_adversary_scenarios()) {
    const char* name = adversary_scenario_name(s);
    const auto parsed = parse_adversary_scenario(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, s) << name;
  }
  EXPECT_EQ(parse_adversary_scenario("subtree"), AdversaryScenario::kSubtreeRollback);
  EXPECT_EQ(parse_adversary_scenario("bypass"), AdversaryScenario::kNvBypassReplay);
  EXPECT_EQ(parse_adversary_scenario("forge"), AdversaryScenario::kRecordForgery);
  EXPECT_EQ(parse_adversary_scenario("wear"), AdversaryScenario::kWearOut);
  EXPECT_FALSE(parse_adversary_scenario("bogus").has_value());
}

TEST(AdversaryScenarios, PercentileOfSortedSample) {
  EXPECT_EQ(percentile({}, 50), 0u);
  EXPECT_EQ(percentile({7}, 0), 7u);
  EXPECT_EQ(percentile({7}, 100), 7u);
  const std::vector<std::uint64_t> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(percentile(s, 100), 10u);
  EXPECT_LE(percentile(s, 50), percentile(s, 95));
}

TEST(AdversaryScenarios, PlanDerivationIsPureAndScenarioTagged) {
  const auto a = AdversaryPlan::derive(AdversaryScenario::kNodeRollback, 42, 3);
  const auto b = AdversaryPlan::derive(AdversaryScenario::kNodeRollback, 42, 3);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.scenario, AdversaryScenario::kNodeRollback);
  // Different trial, seed, or scenario each land in a different stream.
  EXPECT_NE(a.seed, AdversaryPlan::derive(AdversaryScenario::kNodeRollback, 42, 4).seed);
  EXPECT_NE(a.seed, AdversaryPlan::derive(AdversaryScenario::kNodeRollback, 43, 3).seed);
  EXPECT_NE(a.seed, AdversaryPlan::derive(AdversaryScenario::kSubtreeRollback, 42, 3).seed);
}

TEST(AdversarySnapshot, CapturesPersistedDataAndTags) {
  const SystemConfig cfg = small_config();
  std::unique_ptr<SecureMemory> mem = make_scheme(Scheme::kSteins, cfg);
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  ASSERT_NE(base, nullptr);
  Driver driver(*mem);
  for (std::uint64_t i = 0; i < 16; ++i) driver.write(i);
  base->flush_all_metadata();

  const AdversarySnapshot snap = snapshot_device(*base);
  ASSERT_FALSE(snap.empty());
  EXPECT_TRUE(snap.contains(3 * kBlockSize));
  // Same persisted state, same recording: the snapshot is a pure read.
  const AdversarySnapshot again = snapshot_device(*base);
  ASSERT_EQ(snap.lines.size(), again.lines.size());
  for (const auto& [addr, line] : snap.lines) {
    const auto it = again.lines.find(addr);
    ASSERT_NE(it, again.lines.end());
    EXPECT_EQ(line.block, it->second.block);
    EXPECT_EQ(line.tag, it->second.tag);
    EXPECT_EQ(line.tag2, it->second.tag2);
  }
}

// §III-H: a consistent-stale-state replay carries valid HMACs, so the
// tamper layer cannot see it — the LInc layer (or a parent-verification
// mismatch against fresher on-chip state) must. Every rollback variant on
// Steins is detected, at one of exactly those layers, with zero silent.
TEST(AdversaryDetection, SteinsCatchesEveryRollbackAtLIncOrHmacLayer) {
  const FaultTrialOptions w = small_workload();
  const SchemeSpec steins = spec_of(Scheme::kSteins);
  std::set<std::string> layers;
  for (const AdversaryScenario s : {AdversaryScenario::kNodeRollback,
                                    AdversaryScenario::kSubtreeRollback,
                                    AdversaryScenario::kNvBypassReplay}) {
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      const AttackOutcome o = run_attack_trial(steins, s, 42, trial, w);
      ASSERT_NE(o.trial.verdict, Verdict::kSilent)
          << adversary_scenario_name(s) << " trial " << trial << ": " << o.trial.detail;
      ASSERT_GE(o.trial.faults_injected, 1u)
          << adversary_scenario_name(s) << " trial " << trial << " was a no-op";
      ASSERT_EQ(o.trial.verdict, Verdict::kDetected)
          << adversary_scenario_name(s) << " trial " << trial
          << " replay not detected: " << o.trial.detail;
      EXPECT_TRUE(kReplayOrTamperLayers.count(o.trial.detect_layer))
          << "unexpected layer '" << o.trial.detect_layer << "' for "
          << adversary_scenario_name(s);
      layers.insert(o.trial.detect_layer);
    }
  }
  // The replay-detection layer must actually participate: at least one
  // trial is caught by an LInc sum, not only by HMAC tamper checks.
  EXPECT_TRUE(layers.count("recovery-linc")) << "no trial hit the LInc layer";
}

// Record forgery has two variants: erasing dirty records (recovery then
// trusts a stale image — the LInc sum disagrees) and planting plausible
// dirty records (recovery re-verifies clean state — harmless). Detected
// trials must fire at the LInc layer; harmless ones recover. Never silent.
TEST(AdversaryDetection, RecordEraseIsCaughtByLIncsAndPlantingIsHarmless) {
  const FaultTrialOptions w = small_workload();
  const SchemeSpec steins = spec_of(Scheme::kSteins);
  std::uint64_t detected = 0;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const AttackOutcome o =
        run_attack_trial(steins, AdversaryScenario::kRecordForgery, 42, trial, w);
    ASSERT_NE(o.trial.verdict, Verdict::kSilent) << o.trial.detail;
    if (o.trial.verdict == Verdict::kDetected) {
      EXPECT_EQ(o.trial.detect_layer, "recovery-linc") << o.trial.detail;
      ++detected;
    }
  }
  EXPECT_GE(detected, 1u) << "no erase-variant forgery was ever detected";
}

TEST(AdversaryDetection, TornRecordNeverSilent) {
  const FaultTrialOptions w = small_workload();
  const SchemeSpec steins = spec_of(Scheme::kSteins);
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const AttackOutcome o =
        run_attack_trial(steins, AdversaryScenario::kTornRecord, 42, trial, w);
    ASSERT_NE(o.trial.verdict, Verdict::kSilent) << o.trial.detail;
    if (o.trial.verdict == Verdict::kDetected) {
      EXPECT_TRUE(kReplayOrTamperLayers.count(o.trial.detect_layer))
          << o.trial.detect_layer;
    }
  }
}

// The runtime replay lands mid-burst, so detection costs accesses: the
// latency clock must be armed (injection-to-check distance > 0) when a
// demand read or patrol scrub fires after the mutation.
TEST(AdversaryDetection, RuntimeDataReplayArmsTheLatencyClock) {
  const FaultTrialOptions w = small_workload();
  const SchemeSpec steins = spec_of(Scheme::kSteins);
  bool positive_latency = false;
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const AttackOutcome o =
        run_attack_trial(steins, AdversaryScenario::kDataReplay, 42, trial, w);
    ASSERT_NE(o.trial.verdict, Verdict::kSilent) << o.trial.detail;
    if (o.trial.verdict == Verdict::kDetected && o.trial.detect_latency > 0) {
      positive_latency = true;
    }
  }
  EXPECT_TRUE(positive_latency) << "no detected replay reported a latency";
}

// Write-back has no recovery story: every scenario must end in the scheme
// declaring itself unrecoverable — never in silently serving replayed data.
TEST(AdversaryDetection, WriteBackDeclaresItselfUnrecoverable) {
  const FaultTrialOptions w = small_workload();
  const SchemeSpec wb = spec_of(Scheme::kWriteBack);
  for (const AdversaryScenario s : {AdversaryScenario::kNodeRollback,
                                    AdversaryScenario::kRecordForgery,
                                    AdversaryScenario::kDataReplay}) {
    const AttackOutcome o = run_attack_trial(wb, s, 42, 0, w);
    EXPECT_EQ(o.trial.verdict, Verdict::kDetected) << adversary_scenario_name(s);
    EXPECT_EQ(o.trial.detect_layer, "unsupported") << adversary_scenario_name(s);
  }
}

// ---------------------------------------------------------------------------
// Per-cell wear model (NvmConfig::endurance_*).

TEST(WearModel, GaussianLimitsAreDeterministicPerSeed) {
  NvmConfig cfg;
  cfg.endurance_mean_writes = 100;
  cfg.endurance_sigma_writes = 10;
  cfg.wear_seed = 7;
  const NvmDevice a(cfg);
  const NvmDevice b(cfg);
  cfg.wear_seed = 8;
  const NvmDevice c(cfg);
  bool seed_changes_some_limit = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Addr addr = i * kBlockSize;
    const std::uint64_t limit = a.wear_limit(addr);
    EXPECT_EQ(limit, b.wear_limit(addr));
    EXPECT_GT(limit, 0u);
    // ~6 sigma around the mean — the Irwin-Hall draw cannot escape it.
    EXPECT_GE(limit, 40u);
    EXPECT_LE(limit, 160u);
    if (c.wear_limit(addr) != limit) seed_changes_some_limit = true;
  }
  EXPECT_TRUE(seed_changes_some_limit);
}

TEST(WearModel, DemandWritesAgeLinesAndLevelingPreservesData) {
  NvmConfig cfg;
  cfg.endurance_mean_writes = 20;
  cfg.endurance_sigma_writes = 2;
  cfg.remap_pool_lines = 8;
  NvmDevice dev(cfg);
  const Addr addr = 9 * kBlockSize;

  dev.write_block(addr, pattern_block(addr, 1));
  EXPECT_EQ(dev.wear_of(addr), 1u);
  // Bookkeeping pokes model attacker/controller mutations, not cell stress.
  dev.poke_block(addr, pattern_block(addr, 2));
  EXPECT_EQ(dev.wear_of(addr), 1u);

  std::uint64_t version = 2;
  while (dev.stats().lines_wear_leveled == 0 && version < 64) {
    dev.write_block(addr, pattern_block(addr, ++version));
  }
  ASSERT_GT(dev.stats().lines_wear_leveled, 0u) << "no proactive migration";
  EXPECT_EQ(dev.stats().lines_worn_out, 0u);
  // Migration to the spare preserved the latest content and reset wear.
  EXPECT_EQ(dev.read_block(addr), pattern_block(addr, version));
  EXPECT_LT(dev.wear_of(addr), version);
}

TEST(WearModel, DryPoolRunsLineToFailureWithTypedEccLoss) {
  NvmConfig cfg;
  cfg.endurance_mean_writes = 12;
  cfg.endurance_sigma_writes = 2;
  cfg.remap_pool_lines = 0;  // nothing to level or retire onto
  NvmDevice dev(cfg);
  const Addr addr = 5 * kBlockSize;
  for (std::uint64_t v = 1; v <= 40 && !dev.worn_out(addr); ++v) {
    dev.write_block(addr, pattern_block(addr, v));
  }
  ASSERT_TRUE(dev.worn_out(addr));
  EXPECT_GE(dev.stats().lines_worn_out, 1u);
  // Stuck cells: the line reads back uncorrectable, never wrong-but-clean.
  Block out{};
  EXPECT_EQ(dev.read_block_ecc(addr, &out), NvmDevice::EccRead::kUncorrectable);
  // ...and further writes cannot heal it.
  dev.write_block(addr, pattern_block(addr, 99));
  EXPECT_EQ(dev.read_block_ecc(addr, &out), NvmDevice::EccRead::kUncorrectable);
}

// ---------------------------------------------------------------------------
// Spare-pool exhaustion through the full quarantine machinery (satellite:
// retiring more lines than the pool holds must degrade typed, not crash).

TEST(QuarantineExhaustion, RetiringMoreLinesThanSparesFailsTyped) {
  SystemConfig cfg = small_config();
  cfg.nvm.remap_pool_lines = 2;
  std::unique_ptr<SecureMemory> mem = make_scheme(Scheme::kSteins, cfg);
  auto* base = dynamic_cast<SecureMemoryBase*>(mem.get());
  ASSERT_NE(base, nullptr);
  Driver driver(*mem);
  for (std::uint64_t i = 0; i < 16; ++i) driver.write(i);
  base->flush_all_metadata();

  // Kill five data lines; only two spares exist.
  const std::vector<std::uint64_t> dead = {2, 4, 6, 8, 10};
  for (const std::uint64_t idx : dead) {
    const Addr addr = idx * kBlockSize;
    mem->device().inject_ecc_error(addr, 11, /*correctable=*/false, 0);
    try {
      (void)driver.read_check(idx);
      FAIL() << "read of dead line " << idx << " returned plaintext";
    } catch (const StatusError& e) {
      EXPECT_TRUE(is_unavailable(e.code())) << e.what();
    }
  }
  EXPECT_EQ(base->ft_stats().lines_quarantined, dead.size());
  EXPECT_EQ(base->ft_stats().lines_remapped, 2u);
  EXPECT_EQ(mem->device().remap_pool_free(), 0u);

  // The two remapped lines accept fresh writes and then serve them again.
  for (const std::uint64_t idx : {dead[0], dead[1]}) {
    driver.write(idx);
    EXPECT_TRUE(driver.read_check(idx)) << "remapped line " << idx;
  }
  // The remaining three are permanently dead: reads AND writes fail with a
  // typed quarantine error — no assert, no exception escape, no plaintext.
  for (std::size_t i = 2; i < dead.size(); ++i) {
    const Addr addr = dead[i] * kBlockSize;
    Block out{};
    try {
      mem->read_block(addr, driver.now(), &out);
      FAIL() << "read of unremapped dead line succeeded";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kQuarantined) << e.what();
    }
    try {
      mem->write_block(addr, pattern_block(addr, 1), driver.now());
      FAIL() << "write to unremapped dead line succeeded";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kQuarantined) << e.what();
    }
  }
  // Healthy lines keep working throughout.
  EXPECT_TRUE(driver.read_check(1));
  EXPECT_TRUE(driver.read_check(15));
}

TEST(QuarantineExhaustion, KvStoreFreezesReadOnlyWhenPoolIsDry) {
  SystemConfig cfg = small_config();
  cfg.nvm.capacity_bytes = 16ULL << 20;
  cfg.nvm.remap_pool_lines = 0;
  System sys(cfg, Scheme::kSteins);
  kv::KvLayout layout;
  layout.slots = 256;
  kv::KvStore store(sys, layout);
  for (std::uint64_t k = 0; k < 48; ++k) {
    ASSERT_TRUE(store.try_put(k, "value-" + std::to_string(k)).ok());
  }
  ASSERT_FALSE(store.read_only());

  // Kill one resident record line; with zero spares it can never be
  // remapped, so the first mutation that touches it must freeze the store.
  NvmDevice& dev = sys.memory().device();
  const auto resident =
      dev.resident_blocks(layout.base, layout.base + 2 * layout.slots * kBlockSize);
  ASSERT_FALSE(resident.empty());
  dev.inject_ecc_error(resident[resident.size() / 2], 33, false, 0);

  Status first_failure = Status::Ok();
  for (std::uint64_t k = 0; k < 48 && first_failure.ok(); ++k) {
    first_failure = store.try_put(k, "fresh-" + std::to_string(k));
  }
  ASSERT_FALSE(first_failure.ok()) << "no put ever touched the dead line";
  EXPECT_TRUE(first_failure.code() == ErrorCode::kUncorrectable ||
              first_failure.code() == ErrorCode::kQuarantined)
      << first_failure.to_string();
  EXPECT_TRUE(store.read_only());

  // Frozen: every further mutation fails fast with the read-only status...
  EXPECT_EQ(store.try_put(1, "nope").code(), ErrorCode::kReadOnly);
  const auto erased = store.try_erase(1);
  ASSERT_FALSE(erased.has_value());
  EXPECT_EQ(erased.status().code(), ErrorCode::kReadOnly);
  // ...while surviving slots keep serving reads.
  std::uint64_t readable = 0;
  for (std::uint64_t k = 0; k < 48; ++k) {
    const auto got = store.try_get(k);
    if (got.has_value() && got.value().has_value()) ++readable;
  }
  EXPECT_GE(readable, 1u);
}

// ---------------------------------------------------------------------------
// Adversary plumbing through the KV crash harness (smoke; the scheme x
// scenario sweep lives in the campaign tier).

TEST(KvAdversary, RollbackDuringCrashIsNeverSilent) {
  kv::KvCrashOptions opt;
  opt.ops = 96;
  opt.adversary = AdversaryScenario::kSubtreeRollback;
  bool injected = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    opt.seed = seed;
    opt.adversary_seed = seed * 101;
    const kv::KvCrashReport r =
        kv::run_kv_crash_validation(small_config(), Scheme::kSteins, opt);
    EXPECT_TRUE(r.faulted);
    EXPECT_TRUE(r.pass(Scheme::kSteins)) << "seed " << seed << ": " << r.detail;
    injected = injected || r.adversary_injected;
  }
  EXPECT_TRUE(injected) << "no seed produced a landed mutation";
}

// ---------------------------------------------------------------------------
// Endurance projection smoke (full campaign in the campaign tier).

TEST(Endurance, ProjectionScalesWithFootprintAndEndurance) {
  EnduranceOptions opts;
  opts.accel_endurance_mean = 24;
  opts.accel_endurance_sigma = 4;
  opts.remap_pool_lines = 4;
  opts.footprint_blocks = 16;
  opts.max_writes = 20'000;
  opts.audit_every = 1024;
  const EnduranceReport rep = run_endurance_campaign(opts);
  EXPECT_EQ(rep.audit_mismatches, 0u);
  EXPECT_TRUE(rep.recovery_clean);
  EXPECT_GT(rep.writes_to_first_wearout, 0u);
  EXPECT_GT(rep.lines_worn_out, 0u);
  // accel_factor = (real/accel endurance) * (real/accel capacity).
  const double expect_factor = (opts.real_endurance_writes / 24.0) *
                               (opts.real_capacity_lines / 16.0);
  EXPECT_NEAR(rep.accel_factor, expect_factor, expect_factor * 1e-9);
  EXPECT_GT(rep.projected_years_first_wearout, 0.0);
}

}  // namespace
}  // namespace steins
