// Whole-matrix adversarial campaign tests (campaign tier): every scenario
// against every scheme with the acceptance contract from DESIGN.md §16 —
// zero silent corruption, every cell's mutation actually lands, results
// bit-identical for any --jobs, and single-trial reproduction exact. Plus
// the scheme x scenario sweep through the KV and LSM crash harnesses.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "fault/adversary.hpp"
#include "fault/endurance.hpp"
#include "kv/kv_crash.hpp"
#include "kv/lsm/lsm_crash.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::small_config;

/// 14 trials = each of the 7 scenarios drawn twice per scheme; the reduced
/// workload keeps the matrix a few seconds while the checkpoint flush still
/// persists enough metadata for every rollback to land.
AttackCampaignOptions small_attack() {
  AttackCampaignOptions opts;
  opts.trials = 14;
  opts.seed = 42;
  opts.workload.ops = 192;
  opts.workload.footprint_blocks = 1024;
  opts.workload.capacity_mb = 8;
  return opts;
}

TEST(AttackCampaign, MatrixHasNoSilentCorruptionAndEveryCellInjects) {
  const AttackCampaignResult result = run_attack_campaign(small_attack());
  EXPECT_EQ(result.silent_total(), 0u);
  for (const SchemeSpec& spec : result.options.schemes) {
    for (const AdversaryScenario s : result.options.scenarios) {
      const AttackCell c = result.cell(spec.label, s);
      ASSERT_EQ(c.verdicts.total(), 2u) << spec.label;
      EXPECT_EQ(c.verdicts.failed(), 0u)
          << spec.label << " / " << adversary_scenario_name(s);
      EXPECT_GE(c.injected, 1u) << spec.label << " / "
                                << adversary_scenario_name(s)
                                << ": the scenario never landed a mutation";
    }
  }
  // Write-back must fail the recoverability contract explicitly, not
  // silently: every adversarial outcome detected via the "unsupported"
  // layer. (wear-out is hardware aging — ECC/scrub may legitimately catch a
  // casualty at runtime before recovery gets to declare itself.)
  for (const AdversaryScenario s : result.options.scenarios) {
    const AttackCell c = result.cell("WB-GC", s);
    EXPECT_EQ(c.verdicts[Verdict::kDetected], c.verdicts.total())
        << adversary_scenario_name(s);
    if (s == AdversaryScenario::kWearOut) continue;
    const auto it = c.layers.find("unsupported");
    ASSERT_NE(it, c.layers.end()) << adversary_scenario_name(s);
    EXPECT_EQ(it->second, c.verdicts.total());
  }
  // The JSON record carries the per-cell telemetry the CI gate consumes.
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"silent_corruption\""), std::string::npos);
  EXPECT_NE(json.find("\"detect_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"blast_lines\""), std::string::npos);
  EXPECT_NE(json.find("\"subtree-rollback\""), std::string::npos);
}

TEST(AttackCampaign, ResultsAreBitIdenticalAcrossJobCounts) {
  AttackCampaignOptions opts = small_attack();
  opts.trials = 10;
  opts.jobs = 1;
  const AttackCampaignResult seq = run_attack_campaign(opts);
  opts.jobs = 4;
  const AttackCampaignResult par = run_attack_campaign(opts);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t i = 0; i < seq.outcomes.size(); ++i) {
    const TrialOutcome& a = seq.outcomes[i].trial;
    const TrialOutcome& b = par.outcomes[i].trial;
    EXPECT_EQ(seq.outcomes[i].scenario, par.outcomes[i].scenario) << "slot " << i;
    EXPECT_EQ(a.verdict, b.verdict) << "slot " << i;
    EXPECT_EQ(a.detail, b.detail) << "slot " << i;
    EXPECT_EQ(a.events, b.events) << "slot " << i;
    EXPECT_EQ(a.faults_injected, b.faults_injected) << "slot " << i;
    EXPECT_EQ(a.detect_layer, b.detect_layer) << "slot " << i;
    EXPECT_EQ(a.detect_latency, b.detect_latency) << "slot " << i;
    EXPECT_EQ(a.blast_lines, b.blast_lines) << "slot " << i;
    EXPECT_EQ(a.blast_subtrees, b.blast_subtrees) << "slot " << i;
    EXPECT_EQ(a.blast_blocks, b.blast_blocks) << "slot " << i;
  }
}

TEST(AttackCampaign, OnlyTrialReproducesTheFullRunSlot) {
  AttackCampaignOptions opts = small_attack();
  opts.trials = 9;
  const AttackCampaignResult full = run_attack_campaign(opts);
  opts.only_trial = 5;
  const AttackCampaignResult one = run_attack_campaign(opts);
  const std::size_t schemes = full.options.schemes.size();
  ASSERT_EQ(one.outcomes.size(), schemes);
  for (std::size_t s = 0; s < schemes; ++s) {
    const TrialOutcome& a = full.outcomes[5 * schemes + s].trial;
    const TrialOutcome& b = one.outcomes[s].trial;
    EXPECT_EQ(a.verdict, b.verdict) << full.options.schemes[s].label;
    EXPECT_EQ(a.detail, b.detail) << full.options.schemes[s].label;
    EXPECT_EQ(a.events, b.events) << full.options.schemes[s].label;
    EXPECT_EQ(a.detect_layer, b.detect_layer) << full.options.schemes[s].label;
    EXPECT_EQ(a.detect_latency, b.detect_latency) << full.options.schemes[s].label;
  }
}

// Every recoverable scheme, attacked through the KV crash harness: the
// post-crash mutation must never let recovery + reopen serve uncommitted
// or stale values (pass() = exact recovery, verified salvage, or
// detection).
class KvAdversaryScheme
    : public ::testing::TestWithParam<std::tuple<Scheme, AdversaryScenario>> {};

TEST_P(KvAdversaryScheme, CrashWithAdversaryStillPasses) {
  const auto [scheme, scenario] = GetParam();
  kv::KvCrashOptions opt;
  opt.ops = 24;
  opt.adversary = scenario;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    opt.seed = seed;
    opt.adversary_seed = seed * 7919;
    const kv::KvCrashReport r = kv::run_kv_crash_validation(small_config(), scheme, opt);
    EXPECT_TRUE(r.faulted);
    EXPECT_TRUE(r.pass(scheme)) << "seed " << seed << ": " << r.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KvAdversaryScheme,
    ::testing::Combine(::testing::Values(Scheme::kAnubis, Scheme::kStar,
                                         Scheme::kScue, Scheme::kSteins),
                       ::testing::Values(AdversaryScenario::kNodeRollback,
                                         AdversaryScenario::kSubtreeRollback,
                                         AdversaryScenario::kRecordForgery,
                                         AdversaryScenario::kTornRecord)));

TEST(LsmAdversary, CrashWithRollbackStillPasses) {
  SystemConfig cfg = small_config();
  cfg.nvm.capacity_bytes = 16ULL << 20;
  for (const AdversaryScenario s : {AdversaryScenario::kSubtreeRollback,
                                    AdversaryScenario::kNodeRollback,
                                    AdversaryScenario::kTornRecord}) {
    lsm::LsmCrashOptions opt;
    opt.ops = 96;
    opt.seed = 3;
    opt.adversary = s;
    opt.adversary_seed = 0x5eed;
    const lsm::LsmCrashReport r = lsm::run_lsm_crash_validation(cfg, Scheme::kSteins, opt);
    EXPECT_TRUE(r.faulted) << adversary_scenario_name(s);
    EXPECT_TRUE(r.pass(Scheme::kSteins))
        << adversary_scenario_name(s) << ": " << r.detail;
  }
}

// The full accelerated-wear campaign: run-to-failure retirement flows
// through scrub + quarantine while every readable block stays authentic,
// and both milestone projections come out multi-year at PCM endurance.
TEST(EnduranceCampaign, WearMilestonesProjectWithIntegrityIntact) {
  EnduranceOptions opts;
  opts.accel_endurance_mean = 48;
  opts.accel_endurance_sigma = 6;
  opts.remap_pool_lines = 8;
  opts.footprint_blocks = 32;
  opts.max_writes = 60'000;
  opts.audit_every = 2048;
  const EnduranceReport rep = run_endurance_campaign(opts);
  EXPECT_EQ(rep.audit_mismatches, 0u);
  EXPECT_TRUE(rep.recovery_clean);
  EXPECT_GT(rep.lines_wear_leveled, 0u);
  EXPECT_GT(rep.writes_to_first_leveling, 0u);
  EXPECT_GT(rep.writes_to_first_wearout, 0u);
  EXPECT_GT(rep.writes_to_pool_exhaustion, 0u);
  EXPECT_GT(rep.projected_years_first_wearout, 1.0);
}

}  // namespace
}  // namespace steins
