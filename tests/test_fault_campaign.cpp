// Fault-campaign integration tests (ctest label: campaign): the full
// verdict matrix must stay free of silent corruption, results must be
// bit-identical across thread counts, --trial must reproduce a full-run
// slot exactly, and the KV service must survive (or detect) every fault
// class at a crash boundary.
#include <gtest/gtest.h>

#include "fault/campaign.hpp"
#include "kv/kv_crash.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

CampaignOptions small_campaign() {
  CampaignOptions opts;
  opts.trials = 18;  // 2 trials per fault class
  opts.seed = 42;
  opts.workload.ops = 192;
  opts.workload.footprint_blocks = 1024;
  opts.workload.capacity_mb = 8;
  return opts;
}

TEST(FaultCampaign, MatrixHasNoSilentCorruption) {
  const CampaignResult result = run_fault_campaign(small_campaign());
  EXPECT_EQ(result.totals()[Verdict::kSilent], 0u) << [&] {
    std::string all;
    for (const TrialOutcome* o : result.silent_outcomes()) {
      all += o->scheme + "/" + fault_class_name(o->cls) + " trial " +
             std::to_string(o->trial) + ": " + o->detail + "\n";
    }
    return all;
  }();
  // Every (trial, scheme) cell produced a verdict.
  EXPECT_EQ(result.outcomes.size(),
            result.options.trials * result.options.schemes.size());
  for (const TrialOutcome& o : result.outcomes) {
    EXPECT_FALSE(o.scheme.empty());
  }
  EXPECT_NE(result.to_json().find("\"silent_total\": 0"), std::string::npos);
}

TEST(FaultCampaign, ResultsAreBitIdenticalAcrossJobCounts) {
  CampaignOptions opts = small_campaign();
  opts.jobs = 1;
  const CampaignResult seq = run_fault_campaign(opts);
  opts.jobs = 4;
  const CampaignResult par = run_fault_campaign(opts);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t i = 0; i < seq.outcomes.size(); ++i) {
    EXPECT_EQ(seq.outcomes[i].verdict, par.outcomes[i].verdict) << "slot " << i;
    EXPECT_EQ(seq.outcomes[i].detail, par.outcomes[i].detail) << "slot " << i;
    EXPECT_EQ(seq.outcomes[i].events, par.outcomes[i].events) << "slot " << i;
  }
}

TEST(FaultCampaign, OnlyTrialReproducesTheFullRunSlot) {
  CampaignOptions opts = small_campaign();
  opts.trials = 8;
  const CampaignResult full = run_fault_campaign(opts);
  opts.only_trial = 5;
  const CampaignResult one = run_fault_campaign(opts);
  const std::size_t schemes = full.options.schemes.size();
  ASSERT_EQ(one.outcomes.size(), schemes);
  for (std::size_t s = 0; s < schemes; ++s) {
    const TrialOutcome& want = full.outcomes[5 * schemes + s];
    const TrialOutcome& got = one.outcomes[s];
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.detail, want.detail);
    EXPECT_EQ(got.events, want.events);
  }
}

class KvFaultScheme : public ::testing::TestWithParam<Scheme> {};

INSTANTIATE_TEST_SUITE_P(RecoverableSchemes, KvFaultScheme,
                         ::testing::Values(Scheme::kAnubis, Scheme::kStar, Scheme::kScue,
                                           Scheme::kSteins));

// Every fault class folded into a KV crash must end in a verified recovery
// or a detection — never a silent divergence from the committed model.
TEST_P(KvFaultScheme, SurvivesOrDetectsEveryFaultClass) {
  const SystemConfig cfg = testutil::small_config();
  for (const FaultClass cls : all_fault_classes()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      kv::KvCrashOptions opt;
      opt.ops = 24;
      opt.seed = seed;
      opt.fault_class = cls;
      opt.fault_seed = seed * 1000 + static_cast<std::uint64_t>(cls);
      const kv::KvCrashReport r = kv::run_kv_crash_validation(cfg, GetParam(), opt);
      EXPECT_TRUE(r.faulted);
      EXPECT_TRUE(r.pass(GetParam()))
          << fault_class_name(cls) << " seed " << seed << ": " << r.detail;
    }
  }
}

TEST(KvFault, CleanCrashStillVerifies) {
  kv::KvCrashOptions opt;
  opt.ops = 24;
  const kv::KvCrashReport r =
      kv::run_kv_crash_validation(testutil::small_config(), Scheme::kSteins, opt);
  EXPECT_FALSE(r.faulted);
  EXPECT_TRUE(r.verified) << r.detail;
}

}  // namespace
}  // namespace steins
