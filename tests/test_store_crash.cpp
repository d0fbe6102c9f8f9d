// The shared persist-boundary crash harness (kv/store_crash.*): reports of
// both store adapters pinned field for field, and the harness's up-front
// option checks.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "kv/kv_crash.hpp"
#include "kv/lsm/lsm_crash.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::small_config;

enum class Store { kKv, kLsm };
enum class Variant { kPlain, kTornWrite, kSubtreeRollback, kNestedCrash };

struct PinnedRow {
  Store store;
  Scheme scheme;
  std::uint64_t seed;
  Variant variant;
  std::uint64_t crash_at;
  std::uint64_t total_persists;
  std::uint64_t committed_keys;
  const char* crash_stage;
  Verdict verdict;
  std::uint64_t keys_unavailable;
};

template <class Options>
void apply_variant(Variant v, Options* opt) {
  if (v == Variant::kTornWrite) {
    opt->fault_class = FaultClass::kTornWrite;
    opt->fault_seed = 9;
  } else if (v == Variant::kSubtreeRollback) {
    opt->adversary = AdversaryScenario::kSubtreeRollback;
    opt->adversary_seed = 3;
  } else if (v == Variant::kNestedCrash) {
    opt->recovery_crash_boundary = 1;
  }
}

kv::StoreCrashReport run_row(const PinnedRow& row) {
  if (row.store == Store::kKv) {
    kv::KvCrashOptions opt;
    opt.seed = row.seed;
    apply_variant(row.variant, &opt);
    return kv::run_kv_crash_validation(small_config(), row.scheme, opt);
  }
  lsm::LsmCrashOptions opt;
  opt.seed = row.seed;
  apply_variant(row.variant, &opt);
  return lsm::run_lsm_crash_validation(small_config(), row.scheme, opt);
}

// Default options at a seeded-random boundary. Every value was recorded
// from the two separate per-engine harnesses this one replaced; the KV
// crash_stage column is the KvStore persist-hook label of that boundary.
TEST(StoreCrashPinned, ReportsMatchRecordedValues) {
  using enum Store;
  using enum Variant;
  const PinnedRow rows[] = {
      {kKv, Scheme::kSteins, 1, kPlain, 42, 93, 10, "record", Verdict::kRecovered, 0},
      {kKv, Scheme::kSteins, 2, kPlain, 45, 81, 9, "commit", Verdict::kRecovered, 0},
      {kKv, Scheme::kSteins, 3, kPlain, 60, 71, 10, "commit", Verdict::kRecovered, 0},
      {kKv, Scheme::kWriteBack, 1, kPlain, 42, 93, 10, "record", Verdict::kDetected, 0},
      {kKv, Scheme::kWriteBack, 2, kPlain, 45, 81, 9, "commit", Verdict::kDetected, 0},
      {kKv, Scheme::kWriteBack, 3, kPlain, 60, 71, 10, "commit", Verdict::kDetected, 0},
      {kKv, Scheme::kSteins, 1, kTornWrite, 42, 93, 10, "record", Verdict::kRecovered, 0},
      {kKv, Scheme::kSteins, 1, kSubtreeRollback, 42, 93, 10, "record", Verdict::kDetected, 0},
      {kKv, Scheme::kSteins, 1, kNestedCrash, 42, 93, 10, "record",
       Verdict::kRecoveredAfterRetry, 0},
      {kLsm, Scheme::kSteins, 1, kPlain, 30, 230, 7, "flush-data", Verdict::kRecovered, 0},
      {kLsm, Scheme::kSteins, 2, kPlain, 121, 250, 11, "wal", Verdict::kRecovered, 0},
      {kLsm, Scheme::kSteins, 3, kPlain, 125, 255, 10, "flush-data", Verdict::kRecovered, 0},
      {kLsm, Scheme::kWriteBack, 1, kPlain, 30, 230, 7, "flush-data", Verdict::kDetected, 0},
      {kLsm, Scheme::kWriteBack, 2, kPlain, 121, 250, 11, "wal", Verdict::kDetected, 0},
      {kLsm, Scheme::kWriteBack, 3, kPlain, 125, 255, 10, "flush-data", Verdict::kDetected, 0},
      {kLsm, Scheme::kSteins, 1, kTornWrite, 30, 230, 7, "flush-data", Verdict::kDetected, 0},
      {kLsm, Scheme::kSteins, 1, kSubtreeRollback, 30, 230, 7, "flush-data",
       Verdict::kDetected, 0},
      {kLsm, Scheme::kSteins, 1, kNestedCrash, 30, 230, 7, "flush-data",
       Verdict::kRecoveredAfterRetry, 0},
  };
  for (const PinnedRow& row : rows) {
    SCOPED_TRACE(std::string(row.store == kKv ? "kv" : "lsm") + " scheme " +
                 std::to_string(static_cast<int>(row.scheme)) + " seed " +
                 std::to_string(row.seed) + " variant " +
                 std::to_string(static_cast<int>(row.variant)));
    const kv::StoreCrashReport r = run_row(row);
    EXPECT_EQ(r.crash_at, row.crash_at);
    EXPECT_EQ(r.total_persists, row.total_persists);
    EXPECT_EQ(r.committed_keys, row.committed_keys);
    EXPECT_EQ(r.crash_stage, row.crash_stage);
    EXPECT_EQ(r.verdict(row.scheme), row.verdict) << r.detail;
    EXPECT_EQ(r.keys_unavailable, row.keys_unavailable);
  }
}

TEST(StoreCrashPinned, LsmStride7StageCensus) {
  const lsm::LsmCrashMatrix m = lsm::run_lsm_crash_matrix(
      small_config(), Scheme::kSteins, lsm::LsmCrashOptions{}, /*stride=*/7, /*jobs=*/1);
  EXPECT_EQ(m.total_persists, 230u);
  EXPECT_EQ(m.counts[Verdict::kRecovered], 34u);
  EXPECT_EQ(m.counts.total(), 34u);
  const std::map<std::string, std::uint64_t> want = {
      {"compact-data", 4}, {"end", 1},  {"flush-data", 5}, {"flush-footer", 1},
      {"manifest-commit", 2}, {"manifest-data", 4}, {"wal", 17},
  };
  EXPECT_EQ(m.stage_trials, want);
}

// A value the store cannot hold is a usage error, not a silently shorter
// value the report would claim to have validated.
TEST(StoreCrash, OversizedValuesAreRejectedUpFront) {
  kv::KvCrashOptions kv_opt;
  kv_opt.value_bytes = kv::kMaxValueBytes + 1;
  EXPECT_THROW(kv::run_kv_crash_validation(small_config(), Scheme::kSteins, kv_opt),
               std::invalid_argument);
  EXPECT_THROW(kv::run_kv_crash_matrix(small_config(), Scheme::kSteins, kv_opt, 1, 1),
               std::invalid_argument);
  // Rejected by the harness itself, not by the store's put mid-script.
  try {
    kv::run_kv_crash_validation(small_config(), Scheme::kSteins, kv_opt);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("crash harness"), std::string::npos) << e.what();
  }
  kv_opt.value_bytes = kv::kMaxValueBytes;
  EXPECT_TRUE(kv::run_kv_crash_validation(small_config(), Scheme::kSteins, kv_opt)
                  .pass(Scheme::kSteins));

  lsm::LsmCrashOptions lsm_opt;
  lsm_opt.value_bytes = lsm_opt.engine.max_value_bytes + 1;
  EXPECT_THROW(lsm::run_lsm_crash_validation(small_config(), Scheme::kSteins, lsm_opt),
               std::invalid_argument);
  EXPECT_THROW(lsm::run_lsm_crash_matrix(small_config(), Scheme::kSteins, lsm_opt, 7, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace steins
