// Pinned outcomes of the one fault-trial engine (run_fault_trial). A
// single-crash trial is the cycles = 1 case of a K-cycle trial, so the
// K = 1 rows pin the single-crash seeding (workload RNG and
// FaultPlan::derive(cls, seed, trial)) and the K = 2/4 rows the per-cycle
// plan derivation on top of it. A change to any row means a trial's
// workload, fault plan or recovery moved.
//
// The never-silent sweep runs four crash/recover cycles per trial over the
// recovery storm's fault classes: every cycle's checked reads and audit
// compare against the versions the previous audit pinned, so a block a
// recovery rolled back must keep reading as that version (zeros for
// version 0) in every later cycle.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "fault/campaign.hpp"

namespace steins {
namespace {

FaultTrialOptions pinned_workload() {
  FaultTrialOptions w;
  w.ops = 96;
  w.footprint_blocks = 256;
  w.capacity_mb = 8;
  w.retry_policy.max_recovery_attempts = 24;
  return w;
}

SchemeSpec gc_spec(Scheme s) {
  return {s, CounterMode::kGeneral, scheme_name(s, CounterMode::kGeneral)};
}

struct PinnedRow {
  Scheme scheme;
  FaultClass cls;
  std::uint64_t trial;
  std::uint64_t nested_boundary;  // 0 = no nested recovery crash
  bool rearm;
  std::uint64_t cycles;
  Verdict verdict;
  std::uint64_t cycles_run;
  std::vector<std::uint64_t> attempts_per_cycle;
  std::vector<double> recovery_seconds_per_cycle;
};

const std::vector<PinnedRow>& pinned_rows() {
  static const std::vector<PinnedRow> rows = {
      // K = 1: the single-crash trial, recorded before the engines merged.
      {Scheme::kSteins, FaultClass::kNone, 0, 0, false, 1, Verdict::kRecovered, 1, {1},
       {3.5500000000000002e-05}},
      {Scheme::kSteins, FaultClass::kTornWrite, 1, 0, false, 1, Verdict::kDetected, 1, {1},
       {3.5500000000000002e-05}},
      {Scheme::kAnubis, FaultClass::kAdrLoss, 2, 0, false, 1, Verdict::kDetected, 1, {1},
       {2.5600000000000002e-05}},
      {Scheme::kScue, FaultClass::kTornWrite, 4, 2, true, 1, Verdict::kRecoveredAfterRetry, 1,
       {15}, {0.23662559999999999}},
      {Scheme::kSteins, FaultClass::kNone, 8, 1, false, 1, Verdict::kRecoveredAfterRetry, 1,
       {2}, {3.8000000000000002e-05}},
      {Scheme::kSteins, FaultClass::kBitFlipData, 9, 0, false, 1, Verdict::kSalvaged, 1, {1},
       {3.6400000000000004e-05}},
      {Scheme::kAnubis, FaultClass::kBitFlipRecord, 11, 0, false, 1, Verdict::kSalvaged, 1,
       {1}, {3.5300000000000004e-05}},
      {Scheme::kSteins, FaultClass::kTornWrite, 12, 2, true, 1, Verdict::kDetected, 1, {2},
       {5.5400000000000005e-05}},
      // K = 2 / 4: later cycles fold their index into the plan seed.
      {Scheme::kSteins, FaultClass::kNone, 8, 1, false, 2, Verdict::kRecoveredAfterRetry, 2,
       {2, 2}, {3.8000000000000002e-05, 3.9100000000000009e-05}},
      {Scheme::kScue, FaultClass::kCorrectableFlip, 17, 2, false, 2,
       Verdict::kRecoveredAfterRetry, 2, {2, 2}, {0.0351075, 0.0351075}},
      {Scheme::kSteins, FaultClass::kNone, 0, 0, false, 4, Verdict::kRecovered, 4,
       {1, 1, 1, 1},
       {3.5500000000000002e-05, 3.7400000000000008e-05, 3.7400000000000008e-05,
        3.7400000000000008e-05}},
      {Scheme::kStar, FaultClass::kNone, 3, 1, false, 4, Verdict::kRecovered, 4,
       {1, 1, 1, 1},
       {1.9300000000000002e-05, 2.3800000000000003e-05, 2.02e-05, 2.2000000000000003e-05}},
      {Scheme::kScue, FaultClass::kTornWrite, 4, 2, true, 4, Verdict::kDetected, 3,
       {15, 15, 2}, {0.23662559999999999, 0.23662559999999999, 0.014765}},
      {Scheme::kAnubis, FaultClass::kBitFlipRecord, 11, 0, false, 4, Verdict::kSalvaged, 4,
       {1, 1, 1, 1},
       {3.5300000000000004e-05, 2.9100000000000003e-05, 2.9e-05, 2.8900000000000001e-05}},
      {Scheme::kSteins, FaultClass::kCorrectableFlip, 16, 1, true, 4,
       Verdict::kRecoveredAfterRetry, 4, {3, 3, 3, 3},
       {7.6300000000000011e-05, 7.6500000000000016e-05, 7.6500000000000016e-05,
        7.6500000000000016e-05}},
      // Cycle 0 writes off an uncorrectable SIT node; cycle 1's checkpoint
      // flush then refuses with a typed error, which ends the trial salvaged
      // instead of escaping the engine.
      {Scheme::kStar, FaultClass::kBitFlipNode, 0, 0, false, 2, Verdict::kSalvaged, 2, {1},
       {2.1100000000000001e-05}},
  };
  return rows;
}

TEST(FaultTrialPinned, VerdictsAttemptsAndRecoverySecondsPerCycle) {
  for (const PinnedRow& row : pinned_rows()) {
    FaultTrialOptions w = pinned_workload();
    w.recovery_crash_boundary = row.nested_boundary;
    w.recovery_crash_rearm = row.rearm;
    w.cycles = row.cycles;
    const SchemeSpec spec = gc_spec(row.scheme);
    const TrialOutcome out = run_fault_trial(spec, row.cls, 42, row.trial, w);
    const std::string where = spec.label + " " + fault_class_name(row.cls) + " trial " +
                              std::to_string(row.trial) + " K=" + std::to_string(row.cycles);
    EXPECT_EQ(out.verdict, row.verdict) << where << ": " << out.detail;
    EXPECT_EQ(out.cycles_run, row.cycles_run) << where;
    EXPECT_EQ(out.attempts_per_cycle, row.attempts_per_cycle) << where;
    ASSERT_EQ(out.recovery_seconds_per_cycle.size(), row.recovery_seconds_per_cycle.size())
        << where;
    double total = 0.0;
    for (std::size_t c = 0; c < row.recovery_seconds_per_cycle.size(); ++c) {
      EXPECT_DOUBLE_EQ(out.recovery_seconds_per_cycle[c], row.recovery_seconds_per_cycle[c])
          << where << " cycle " << c;
      total += out.recovery_seconds_per_cycle[c];
    }
    EXPECT_DOUBLE_EQ(out.recovery_seconds, total) << where;
  }
}

TEST(FaultTrialPinned, SingleCycleIsTheDefault) {
  const SchemeSpec spec = gc_spec(Scheme::kSteins);
  FaultTrialOptions w = pinned_workload();
  const TrialOutcome implicit = run_fault_trial(spec, FaultClass::kTornWrite, 42, 1, w);
  w.cycles = 1;
  const TrialOutcome explicit_k1 = run_fault_trial(spec, FaultClass::kTornWrite, 42, 1, w);
  EXPECT_EQ(implicit.verdict, explicit_k1.verdict);
  EXPECT_EQ(implicit.detail, explicit_k1.detail);
  EXPECT_EQ(implicit.events, explicit_k1.events);
  EXPECT_EQ(implicit.attempts_per_cycle, explicit_k1.attempts_per_cycle);
}

// ---------------------------------------------------------------------------
// Never silent across cycles: every GC scheme x the storm's fault classes.

class FaultTrialNeverSilent
    : public ::testing::TestWithParam<std::tuple<Scheme, FaultClass>> {};

TEST_P(FaultTrialNeverSilent, FourCycles) {
  const auto [scheme, cls] = GetParam();
  const SchemeSpec spec = gc_spec(scheme);
  FaultTrialOptions w = pinned_workload();
  w.cycles = 4;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const TrialOutcome out = run_fault_trial(spec, cls, 42, trial, w);
    EXPECT_NE(out.verdict, Verdict::kSilent) << "trial " << trial << ": " << out.detail;
    EXPECT_NE(out.verdict, Verdict::kUnrecoverable) << "trial " << trial << ": " << out.detail;
    EXPECT_GE(out.cycles_run, 1u);
    EXPECT_LE(out.cycles_run, 4u);
    EXPECT_LE(out.attempts_per_cycle.size(), out.cycles_run);
    if (out.verdict == Verdict::kRecovered || out.verdict == Verdict::kRecoveredAfterRetry) {
      // A converged trial ran every cycle.
      EXPECT_EQ(out.cycles_run, 4u) << "trial " << trial;
      EXPECT_EQ(out.attempts_per_cycle.size(), 4u) << "trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StormClasses, FaultTrialNeverSilent,
    ::testing::Combine(::testing::Values(Scheme::kAnubis, Scheme::kStar, Scheme::kScue,
                                         Scheme::kSteins),
                       ::testing::Values(FaultClass::kNone, FaultClass::kTornWrite,
                                         FaultClass::kAdrLoss)),
    [](const ::testing::TestParamInfo<std::tuple<Scheme, FaultClass>>& info) {
      std::string name = scheme_name(std::get<0>(info.param), CounterMode::kGeneral);
      name += std::string("_") + fault_class_name(std::get<1>(info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace steins
