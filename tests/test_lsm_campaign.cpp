// LSM crash campaign (ctest label: campaign): the exhaustive
// crash-at-every-persist-boundary matrix for every scheme, plus the
// hardware-fault-folded and manifest-loss variants. Silent corruption
// must be zero everywhere — detection, exact recovery, and verified
// salvage are the only legal outcomes.
#include <gtest/gtest.h>

#include <string>

#include "kv/lsm/lsm_crash.hpp"
#include "test_util.hpp"

namespace steins::lsm {
namespace {

using testutil::small_config;

std::string matrix_failures(const LsmCrashMatrix& m) {
  std::string all;
  for (const auto& [boundary, detail] : m.failures) {
    all += "boundary " + std::to_string(boundary) + ": " + detail + "\n";
  }
  return all;
}

TEST(LsmCampaign, ExhaustiveBoundarySweepEveryScheme) {
  LsmCrashOptions opt;
  opt.ops = 96;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kSteins, Scheme::kScue}) {
    const LsmCrashMatrix m = run_lsm_crash_matrix(small_config(), scheme, opt,
                                                  /*stride=*/1, /*jobs=*/4);
    EXPECT_EQ(m.counts[Verdict::kSilent], 0u)
        << "scheme " << static_cast<int>(scheme) << "\n" << matrix_failures(m);
    EXPECT_EQ(m.counts.total(), m.total_persists + 1);
    // Every protocol stage must appear in the sweep.
    for (const char* stage :
         {"wal", "flush-data", "flush-footer", "compact-data", "compact-footer",
          "manifest-data", "manifest-commit"}) {
      EXPECT_TRUE(m.stage_trials.contains(stage))
          << "scheme " << static_cast<int>(scheme) << " never hit " << stage;
    }
  }
}

TEST(LsmCampaign, FaultFoldedCrashesNeverSilent) {
  for (const FaultClass cls :
       {FaultClass::kTornWrite, FaultClass::kDroppedPersist,
        FaultClass::kReorderedPersist, FaultClass::kAdrLoss,
        FaultClass::kBitFlipData, FaultClass::kCorrectableFlip}) {
    for (const Scheme scheme :
         {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        LsmCrashOptions opt;
        opt.ops = 64;
        opt.seed = trial + 1;
        opt.fault_class = cls;
        opt.fault_seed = trial * 1000 + 7;
        const LsmCrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
        EXPECT_TRUE(r.pass(scheme))
            << "scheme " << static_cast<int>(scheme) << " fault "
            << fault_class_name(cls) << " trial " << trial << ": " << r.detail;
        EXPECT_NE(r.verdict(scheme), Verdict::kSilent);
      }
    }
  }
}

TEST(LsmCampaign, ManifestLossSweepAlwaysDetected) {
  for (const Scheme scheme :
       {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
    for (std::uint64_t boundary = 0; boundary < 200; boundary += 23) {
      LsmCrashOptions opt;
      opt.ops = 64;
      opt.crash_at = boundary;
      opt.manifest_loss = true;
      const LsmCrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
      EXPECT_TRUE(r.pass(scheme)) << "boundary " << boundary << ": " << r.detail;
      EXPECT_EQ(r.verdict(scheme), Verdict::kDetected)
          << "scheme " << static_cast<int>(scheme) << " boundary " << boundary;
    }
  }
}

}  // namespace
}  // namespace steins::lsm
