// Crash-at-persist-boundary validation for the LSM engine (fast lane:
// strided sweep; the exhaustive stride-1 matrix and the fault-folded
// variants live in test_lsm_campaign.cpp).
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

TEST(LsmCrash, StridedSweepHasNoSilentCorruptionPerScheme) {
  LsmCrashOptions opt;
  opt.ops = 72;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kSteins, Scheme::kScue}) {
    const LsmCrashMatrix m =
        run_lsm_crash_matrix(small_config(), scheme, opt, /*stride=*/17, /*jobs=*/1);
    EXPECT_GT(m.counts.total(), 4u);
    EXPECT_EQ(m.counts[Verdict::kSilent], 0u)
        << "scheme " << static_cast<int>(scheme) << "\n" << matrix_failures(m);
    if (scheme == Scheme::kWriteBack) {
      // WB: every crash detected unrecoverable
      EXPECT_EQ(m.counts[Verdict::kDetected], m.counts.total());
    } else {
      EXPECT_EQ(m.counts.converged() + m.counts[Verdict::kSalvaged], m.counts.total());
    }
  }
}

TEST(LsmCrash, SweepCoversEveryPersistStage) {
  LsmCrashOptions opt;
  opt.ops = 72;
  const LsmCrashMatrix m =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 1, /*jobs=*/4);
  // The script + small geometry must hit every protocol stage, or the
  // sweep proves nothing about the stages it missed.
  for (const char* stage : {"wal", "flush-data", "flush-footer", "compact-data",
                            "compact-footer", "manifest-data", "manifest-commit"}) {
    EXPECT_TRUE(m.stage_trials.contains(stage)) << "stage " << stage << " never hit";
  }
  EXPECT_EQ(m.counts[Verdict::kSilent], 0u) << matrix_failures(m);
}

TEST(LsmCrash, SingleBoundaryReportsReproduce) {
  LsmCrashOptions opt;
  opt.ops = 48;
  opt.crash_at = 37;
  const LsmCrashReport a = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  const LsmCrashReport b = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(a.pass(Scheme::kSteins)) << a.detail;
  EXPECT_EQ(a.crash_at, b.crash_at);
  EXPECT_EQ(a.crash_stage, b.crash_stage);
  EXPECT_EQ(a.committed_keys, b.committed_keys);
  EXPECT_EQ(a.total_persists, b.total_persists);
  EXPECT_EQ(a.verdict(Scheme::kSteins), b.verdict(Scheme::kSteins));
}

TEST(LsmCrash, MatrixIsDeterministicAcrossJobCounts) {
  LsmCrashOptions opt;
  opt.ops = 48;
  const LsmCrashMatrix seq =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 29, /*jobs=*/1);
  const LsmCrashMatrix par =
      run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, 29, /*jobs=*/4);
  EXPECT_EQ(seq.counts.total(), par.counts.total());
  EXPECT_EQ(seq.counts.converged(), par.counts.converged());
  EXPECT_EQ(seq.counts[Verdict::kDetected], par.counts[Verdict::kDetected]);
  EXPECT_EQ(seq.counts[Verdict::kSalvaged], par.counts[Verdict::kSalvaged]);
  EXPECT_EQ(seq.counts[Verdict::kSilent], par.counts[Verdict::kSilent]);
  EXPECT_EQ(seq.stage_trials, par.stage_trials);
}

TEST(LsmCrash, ManifestLossIsDetectedNeverServed) {
  LsmCrashOptions opt;
  opt.ops = 48;
  opt.crash_at = LsmCrashOptions::kRandomBoundary;
  opt.manifest_loss = true;
  for (const Scheme scheme :
       {Scheme::kAnubis, Scheme::kStar, Scheme::kSteins, Scheme::kScue}) {
    const LsmCrashReport r = run_lsm_crash_validation(small_config(), scheme, opt);
    EXPECT_TRUE(r.pass(scheme)) << r.detail;
    EXPECT_TRUE(r.fault_detected) << "scheme " << static_cast<int>(scheme)
                                  << " served a lost manifest: " << r.detail;
    EXPECT_EQ(r.verdict(scheme), Verdict::kDetected);
  }
}

TEST(LsmCrash, TornWalTailIsReportedOnMidWalCrashes) {
  // Sweep a window of boundaries and require that at least one mid-WAL
  // crash produced a reopen that saw (and discarded) a torn tail.
  LsmCrashOptions opt;
  opt.ops = 48;
  bool saw_torn = false;
  for (std::uint64_t b = 10; b < 60 && !saw_torn; ++b) {
    opt.crash_at = b;
    const LsmCrashReport r = run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
    ASSERT_TRUE(r.pass(Scheme::kSteins)) << "boundary " << b << ": " << r.detail;
    if (r.crash_stage == "wal" && r.wal_torn) saw_torn = true;
  }
  EXPECT_TRUE(saw_torn);
}

}  // namespace
}  // namespace steins::lsm
