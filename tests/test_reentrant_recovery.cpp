// Re-entrant recovery (DESIGN.md §17): a recovery attempt that crashes at
// ANY persist boundary and is re-entered must converge to the exact image
// an uncrashed recovery produces. The differential harness runs the same
// seeded workload twice, crashes the recovery of one copy at a chosen
// boundary, retries it, and compares durable state bit-for-bit.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/differential.hpp"
#include "fault/fault.hpp"
#include "kv/kv_crash.hpp"
#include "kv/lsm/lsm_crash.hpp"
#include "schemes/bmt.hpp"
#include "schemes/steins.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::pattern_block;
using testutil::small_config;

DifferentialOptions fast_options() {
  DifferentialOptions opt;
  opt.seed = 11;
  opt.ops = 96;
  opt.footprint_blocks = 256;
  opt.capacity_mb = 8;
  opt.mcache_kb = 16;
  return opt;
}

std::vector<SchemeSpec> sweep_schemes() {
  std::vector<SchemeSpec> specs = campaign_schemes(CounterMode::kGeneral);
  const auto split = campaign_schemes(CounterMode::kSplit);
  specs.insert(specs.end(), split.begin(), split.end());
  return specs;
}

/// STAR's recovery is pure reads + volatile cache repairs (LSB splicing
/// into the mcache, verified against the root register) — it crosses zero
/// persist boundaries, so a nested crash has nothing durable to interrupt
/// and the armed-boundary tests are vacuous for it.
bool recovery_persists_nothing(const SchemeSpec& spec) {
  return spec.scheme == Scheme::kStar;
}

class ReentrantRecovery : public ::testing::TestWithParam<SchemeSpec> {};

TEST_P(ReentrantRecovery, CleanSelfCheckConverges) {
  // boundary=0: both copies recover uncrashed. Any divergence here is a
  // harness bug, not a re-entrancy bug.
  const DifferentialResult res = run_differential_trial(GetParam(), fast_options());
  EXPECT_TRUE(res.converged) << res.divergence;
  if (recovery_persists_nothing(GetParam())) {
    EXPECT_EQ(res.total_boundaries, 0u);
  } else {
    EXPECT_GT(res.total_boundaries, 0u);
  }
}

TEST_P(ReentrantRecovery, BoundaryCensusIsDeterministic) {
  const DifferentialOptions opt = fast_options();
  const std::uint64_t a = count_recovery_boundaries(GetParam(), opt);
  const std::uint64_t b = count_recovery_boundaries(GetParam(), opt);
  EXPECT_EQ(a, b);
  if (!recovery_persists_nothing(GetParam())) {
    EXPECT_GT(a, 0u);
  }
}

TEST_P(ReentrantRecovery, StridedBoundarySweepConverges) {
  if (recovery_persists_nothing(GetParam())) {
    GTEST_SKIP() << "recovery crosses no persist boundaries";
  }
  const DifferentialOptions base = fast_options();
  const std::uint64_t total = count_recovery_boundaries(GetParam(), base);
  ASSERT_GT(total, 0u);

  // Sample ~10 boundaries evenly, always including the first and the last.
  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 10);
  std::vector<std::uint64_t> sample;
  for (std::uint64_t b = 1; b <= total; b += stride) sample.push_back(b);
  if (sample.back() != total) sample.push_back(total);

  for (const std::uint64_t boundary : sample) {
    DifferentialOptions opt = base;
    opt.boundary = boundary;
    const DifferentialResult res = run_differential_trial(GetParam(), opt);
    EXPECT_TRUE(res.converged)
        << GetParam().label << " diverged after nested crash at boundary " << boundary
        << "/" << total << ": " << res.divergence;
    ASSERT_GE(res.crashed.attempts.size(), 2u);
    EXPECT_TRUE(res.crashed.attempts.front().crashed);
    EXPECT_EQ(res.crashed.attempts.front().crash_boundary, boundary);
    EXPECT_FALSE(res.crashed.attempts.back().crashed);
  }
}

TEST_P(ReentrantRecovery, RearmedCrashBacksOffAndConverges) {
  if (recovery_persists_nothing(GetParam())) {
    GTEST_SKIP() << "recovery crosses no persist boundaries";
  }
  // Re-arming the crash on every retry exercises the exponential persist-
  // budget backoff: the armed boundary doubles until it sails past the end
  // of the attempt, so the budget must allow ~log2(total) doublings.
  DifferentialOptions opt = fast_options();
  const std::uint64_t total = count_recovery_boundaries(GetParam(), opt);
  opt.boundary = 1;
  opt.rearm = true;
  std::uint64_t attempts = 2;
  while ((std::uint64_t{1} << (attempts - 1)) <= total) ++attempts;
  opt.policy.max_recovery_attempts = attempts + 2;
  const DifferentialResult res = run_differential_trial(GetParam(), opt);
  EXPECT_TRUE(res.converged) << res.divergence;
  ASSERT_GE(res.crashed.attempts.size(), 2u);
  EXPECT_TRUE(res.crashed.attempts.front().crashed);
  EXPECT_FALSE(res.crashed.attempts.back().crashed);
  // Each retry's armed boundary is strictly deeper than the last.
  std::uint64_t prev = 0;
  for (const RecoveryAttempt& a : res.crashed.attempts) {
    if (!a.crashed) break;
    EXPECT_GT(a.crash_boundary, prev);
    prev = a.crash_boundary;
  }
}

TEST_P(ReentrantRecovery, ExhaustedRetryBudgetGivesUpTyped) {
  if (recovery_persists_nothing(GetParam())) {
    GTEST_SKIP() << "recovery crosses no persist boundaries";
  }
  DifferentialOptions opt = fast_options();
  opt.boundary = 1;
  opt.policy.max_recovery_attempts = 1;
  const DifferentialResult res = run_differential_trial(GetParam(), opt);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.crashed.recovery_gave_up);
  EXPECT_EQ(res.crashed.status.code(), ErrorCode::kUnavailable);
  ASSERT_EQ(res.crashed.attempts.size(), 1u);
  EXPECT_TRUE(res.crashed.attempts.front().crashed);
}

std::string spec_test_name(const ::testing::TestParamInfo<SchemeSpec>& info) {
  std::string name = info.param.label;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Schemes, ReentrantRecovery, ::testing::ValuesIn(sweep_schemes()),
                         spec_test_name);

// ---------------------------------------------------------------------------
// Steins resume cursor: survives the crash that interrupted the attempt
// (including a subsequent ADR drain), seeds the next attempt, and is
// retired once an attempt completes.

std::uint64_t cursor_magic_at(SteinsMemory& mem) {
  std::uint64_t magic = 0;
  const Block header = mem.device().peek_block(mem.recovery_cursor_base());
  std::memcpy(&magic, header.data(), 8);
  return magic;
}

TEST(SteinsResumeCursor, SurvivesAdrLossAndSeedsNextAttempt) {
  SteinsMemory mem(small_config());
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  Xoshiro256 rng(21);
  for (int i = 0; i < 1500; ++i) {
    const Addr addr = rng.below(400) * kBlockSize;
    now = mem.write_block(addr, pattern_block(addr, ++versions[addr]), now);
  }
  mem.crash();
  EXPECT_EQ(cursor_magic_at(mem), 0u) << "no attempt pending before recovery";

  // Crash the recovery right after the cursor persisted (boundary 1 is the
  // cursor itself; boundary 2 is the first durable write past it), with a
  // one-attempt budget so the give-up path leaves the machine down.
  FaultInjector inj(FaultPlan::derive(FaultClass::kNone, 7, 0));
  inj.arm_recovery_crash(2);
  mem.set_fault_injector(&inj);
  RecoveryRetryPolicy one_shot;
  one_shot.max_recovery_attempts = 1;
  const RecoveryReport gave_up = recover_with_retry(mem, &inj, one_shot);
  mem.set_fault_injector(nullptr);
  ASSERT_TRUE(gave_up.recovery_gave_up);
  EXPECT_EQ(gave_up.status.code(), ErrorCode::kUnavailable);
  ASSERT_EQ(gave_up.attempts.size(), 1u);
  EXPECT_TRUE(gave_up.attempts.front().crashed);
  EXPECT_EQ(gave_up.attempts.front().crash_boundary, 2u);

  // The cursor window was poked durably, so it survives a further power
  // loss that drains nothing (ADR already empty after the nested crash).
  EXPECT_EQ(cursor_magic_at(mem), SteinsMemory::kCursorMagic);
  mem.crash();
  EXPECT_EQ(cursor_magic_at(mem), SteinsMemory::kCursorMagic);

  // A fresh recovery resumes: it reads the non-empty cursor (the crashed
  // attempt's telemetry was already drained into the gave-up report) and
  // retires it on completion.
  const RecoveryReport done = mem.recover();
  ASSERT_TRUE(done.status.ok()) << done.status.message();
  EXPECT_FALSE(done.attack_detected) << done.attack_detail;
  ASSERT_GE(done.attempts.size(), 1u);
  EXPECT_FALSE(done.attempts.back().crashed);
  EXPECT_GT(done.resume_cursor, 0u);
  EXPECT_EQ(cursor_magic_at(mem), 0u) << "cursor retired after a completed attempt";

  // Data still serves the committed versions.
  for (const auto& [addr, v] : versions) {
    Block out;
    now = mem.read_block(addr, now, &out);
    ASSERT_EQ(out, pattern_block(addr, v));
  }
}

// ---------------------------------------------------------------------------
// Campaign integration: the nested-crash knobs thread through the fault
// trial, single- and multi-cycle, producing the two new verdicts.

FaultTrialOptions small_trial_workload() {
  FaultTrialOptions w;
  w.ops = 96;
  w.footprint_blocks = 256;
  w.capacity_mb = 8;
  return w;
}

TEST(ReentrantCampaign, NestedCrashYieldsRecoveredAfterRetry) {
  FaultTrialOptions w = small_trial_workload();
  w.recovery_crash_boundary = 1;
  const SchemeSpec spec{Scheme::kSteins, CounterMode::kGeneral,
                        scheme_name(Scheme::kSteins, CounterMode::kGeneral)};
  const TrialOutcome out = run_fault_trial(spec, FaultClass::kNone, 5, 0, w);
  EXPECT_EQ(out.verdict, Verdict::kRecoveredAfterRetry) << out.detail;
  EXPECT_EQ(out.recovery_attempts, 2u);
  EXPECT_GT(out.recovery_seconds, 0.0);
}

TEST(ReentrantCampaign, ExhaustedBudgetYieldsUnrecoverable) {
  FaultTrialOptions w = small_trial_workload();
  w.recovery_crash_boundary = 1;
  w.recovery_crash_rearm = true;
  w.retry_policy.max_recovery_attempts = 1;
  w.retry_policy.exponential_backoff = false;
  const SchemeSpec spec{Scheme::kSteins, CounterMode::kGeneral,
                        scheme_name(Scheme::kSteins, CounterMode::kGeneral)};
  const TrialOutcome out = run_fault_trial(spec, FaultClass::kNone, 5, 0, w);
  EXPECT_EQ(out.verdict, Verdict::kUnrecoverable) << out.detail;
  EXPECT_EQ(out.recovery_attempts, 1u);
}

TEST(ReentrantCampaign, MulticycleCleanTrialRecovers) {
  FaultTrialOptions w = small_trial_workload();
  w.cycles = 3;
  const SchemeSpec spec{Scheme::kSteins, CounterMode::kGeneral,
                        scheme_name(Scheme::kSteins, CounterMode::kGeneral)};
  const TrialOutcome out = run_fault_trial(spec, FaultClass::kNone, 5, 0, w);
  EXPECT_EQ(out.verdict, Verdict::kRecovered) << out.detail;
  EXPECT_EQ(out.cycles_run, 3u);
  ASSERT_EQ(out.attempts_per_cycle.size(), 3u);
  for (const std::uint64_t a : out.attempts_per_cycle) EXPECT_EQ(a, 1u);
  for (const double s : out.recovery_seconds_per_cycle) EXPECT_GT(s, 0.0);
}

TEST(ReentrantCampaign, MulticycleNestedCrashEveryCycleConverges) {
  FaultTrialOptions w = small_trial_workload();
  w.recovery_crash_boundary = 1;
  w.cycles = 3;
  const SchemeSpec spec{Scheme::kSteins, CounterMode::kGeneral,
                        scheme_name(Scheme::kSteins, CounterMode::kGeneral)};
  const TrialOutcome out = run_fault_trial(spec, FaultClass::kNone, 5, 0, w);
  EXPECT_EQ(out.verdict, Verdict::kRecoveredAfterRetry) << out.detail;
  EXPECT_EQ(out.cycles_run, 3u);
  ASSERT_EQ(out.attempts_per_cycle.size(), 3u);
  for (const std::uint64_t a : out.attempts_per_cycle) EXPECT_EQ(a, 2u);
}

// The KV and LSM crash harnesses score a budget-exhausting nested crash
// through the same verdict: unrecoverable, never a pass, and it dirties the
// LSM matrix tally.

TEST(ReentrantCampaign, KvHarnessExhaustedBudgetIsUnrecoverable) {
  kv::KvCrashOptions opt;
  opt.ops = 24;
  opt.crash_at = 12;
  opt.recovery_crash_boundary = 1;
  opt.recovery_crash_rearm = true;
  opt.retry_policy.max_recovery_attempts = 2;
  opt.retry_policy.exponential_backoff = false;
  const kv::KvCrashReport r = kv::run_kv_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(r.recovery_gave_up) << r.detail;
  EXPECT_EQ(r.recovery_attempts, 2u);
  EXPECT_EQ(r.verdict(Scheme::kSteins), Verdict::kUnrecoverable) << r.detail;
  EXPECT_FALSE(r.pass(Scheme::kSteins));
}

TEST(ReentrantCampaign, LsmHarnessExhaustedBudgetIsUnrecoverable) {
  lsm::LsmCrashOptions opt;
  opt.ops = 48;
  opt.crash_at = 37;
  opt.recovery_crash_boundary = 1;
  opt.recovery_crash_rearm = true;
  opt.retry_policy.max_recovery_attempts = 2;
  opt.retry_policy.exponential_backoff = false;
  const lsm::LsmCrashReport r =
      lsm::run_lsm_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(r.recovery_gave_up) << r.detail;
  EXPECT_EQ(r.verdict(Scheme::kSteins), Verdict::kUnrecoverable) << r.detail;
  EXPECT_FALSE(r.pass(Scheme::kSteins));

  const lsm::LsmCrashMatrix m =
      lsm::run_lsm_crash_matrix(small_config(), Scheme::kSteins, opt, /*stride=*/29,
                                /*jobs=*/1);
  EXPECT_GT(m.counts[Verdict::kUnrecoverable], 0u);
  EXPECT_FALSE(m.counts.clean());
  EXPECT_FALSE(m.failures.empty());
}

// ---------------------------------------------------------------------------
// BMT is a standalone SecureMemory (no SecureMemoryBase plumbing), so its
// whole-tree rebuild gets a direct-drive differential sweep.

struct BmtRun {
  std::unique_ptr<BmtMemory> mem;
  std::map<Addr, std::uint64_t> versions;
};

BmtRun bmt_crashed_run() {
  BmtRun run;
  run.mem = std::make_unique<BmtMemory>(small_config());
  Cycle now = 0;
  Xoshiro256 rng(9);
  for (int i = 0; i < 800; ++i) {
    const Addr addr = rng.below(300) * kBlockSize;
    now = run.mem->write_block(addr, pattern_block(addr, ++run.versions[addr]), now);
  }
  run.mem->crash();
  return run;
}

TEST(BmtReentrantRecovery, StridedBoundarySweepConverges) {
  // Census: one clean recovery with a disarmed injector counts boundaries.
  std::uint64_t total = 0;
  {
    BmtRun census = bmt_crashed_run();
    FaultInjector inj(FaultPlan::derive(FaultClass::kNone, 3, 0));
    census.mem->set_fault_injector(&inj);
    inj.begin_recovery_attempt();
    const RecoveryResult r = census.mem->recover();
    ASSERT_TRUE(r.status.ok());
    ASSERT_FALSE(r.attack_detected);
    total = inj.recovery_persists();
  }
  ASSERT_GT(total, 0u);

  BmtRun clean = bmt_crashed_run();
  ASSERT_TRUE(clean.mem->recover().status.ok());

  const std::uint64_t stride = std::max<std::uint64_t>(1, total / 6);
  for (std::uint64_t boundary = 1; boundary <= total; boundary += stride) {
    BmtRun trial = bmt_crashed_run();
    FaultInjector inj(FaultPlan::derive(FaultClass::kNone, 3, 0));
    inj.arm_recovery_crash(boundary);
    trial.mem->set_fault_injector(&inj);
    const RecoveryReport report = recover_with_retry(*trial.mem, &inj, RecoveryRetryPolicy{});
    trial.mem->set_fault_injector(nullptr);
    ASSERT_FALSE(report.recovery_gave_up) << "boundary " << boundary;
    ASSERT_TRUE(report.status.ok()) << report.status.message();
    ASSERT_GE(report.attempts.size(), 2u);
    EXPECT_TRUE(report.attempts.front().crashed);
    EXPECT_EQ(report.attempts.front().crash_boundary, boundary);

    // The rebuilt image must match the uncrashed rebuild bit-for-bit: the
    // data region and the whole metadata (counter + hash-tree) region.
    const SitGeometry& geo = clean.mem->geometry();
    const auto ra = clean.mem->device().resident_blocks(0, geo.aux_base());
    const auto rb = trial.mem->device().resident_blocks(0, geo.aux_base());
    ASSERT_EQ(ra, rb) << "boundary " << boundary;
    for (const Addr addr : ra) {
      ASSERT_EQ(clean.mem->device().peek_block(addr), trial.mem->device().peek_block(addr))
          << "boundary " << boundary << " addr " << addr;
      ASSERT_EQ(clean.mem->device().read_tag(addr), trial.mem->device().read_tag(addr))
          << "boundary " << boundary << " addr " << addr;
    }

    // And it must serve every committed version.
    Cycle now = 0;
    for (const auto& [addr, v] : trial.versions) {
      Block out;
      now = trial.mem->read_block(addr, now, &out);
      ASSERT_EQ(out, pattern_block(addr, v));
    }
  }
}

}  // namespace
}  // namespace steins
