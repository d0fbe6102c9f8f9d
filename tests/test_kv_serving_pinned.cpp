// Pinned outputs of the sharded serving path: one table per controller,
// group commit on. KvYcsbPinned covers only the interleaved preset without
// group commit; these cases pin load-aware routing with a 64-word window
// (YCSB-A) and hash routing with a 16-word window (YCSB-F, so a record read
// and a record write share an op), under WB-GC and Steins-GC at jobs 1 and
// 4, plus the plan-only access count and one crash-validation report. A
// refactor of the engine must reproduce every value exactly.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "kv/serving.hpp"
#include "test_util.hpp"

namespace steins::kv {
namespace {

// small_config(), 4 shards, 4 clients, 9000 ops in 4096-op epochs (three
// epochs), 1500 keys over 4096-slot tables, seed 7.
ServingConfig pinned_config(Routing routing) {
  ServingConfig scfg;
  scfg.clients = 4;
  scfg.shards = 4;
  scfg.ops = 9000;
  scfg.keys = 1500;
  scfg.slots = std::size_t{1} << 12;
  scfg.seed = 7;
  scfg.epoch_ops = 4096;
  scfg.routing = routing;
  if (routing == Routing::kHash) {
    scfg.mix = Mix::kF;
    scfg.group_commit_window = 16;
  } else {
    scfg.mix = Mix::kA;
    scfg.group_commit_window = 64;
  }
  return scfg;
}

struct Pinned {
  Cycle makespan;
  std::uint64_t nvm_writes;
  std::uint64_t commit_writes;
  double batch_mean;
  std::uint64_t image_digest;
};

struct Case {
  Routing routing;
  Scheme scheme;
  Pinned expect;
};

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {Routing::kLoadAware, Scheme::kWriteBack,
       {1672330, 9108, 4431, 3.3920539730134931, 0x7cd3b4292dcb254aULL}},
      {Routing::kLoadAware, Scheme::kSteins,
       {1693327, 9175, 4431, 3.3920539730134931, 0x7cd3b4292dcb254aULL}},
      {Routing::kHash, Scheme::kWriteBack,
       {2280383, 9407, 4472, 3.678861788617886, 0xd4b078d9024c69caULL}},
      {Routing::kHash, Scheme::kSteins,
       {2306645, 9520, 4472, 3.678861788617886, 0xd4b078d9024c69caULL}},
  };
  return kCases;
}

const char* scheme_label(Scheme s) { return s == Scheme::kWriteBack ? "WB" : "Steins"; }

void PrintTo(const Case& c, std::ostream* os) {
  *os << routing_name(c.routing) << "/" << scheme_label(c.scheme);
}

using Param = std::tuple<Case, unsigned>;

class KvServingPinned : public ::testing::TestWithParam<Param> {};

TEST_P(KvServingPinned, ServingMatchesRecordedValues) {
  const auto& [c, jobs] = GetParam();
  ServingConfig scfg = pinned_config(c.routing);
  scfg.jobs = jobs;
  const ServingResult r = run_sharded_serving(testutil::small_config(), c.scheme, scfg);
  const Pinned& want = c.expect;
  EXPECT_EQ(r.ops, scfg.ops);
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.nvm_writes, want.nvm_writes);
  EXPECT_EQ(r.commit_writes, want.commit_writes);
  EXPECT_EQ(r.batch_sizes.mean(), want.batch_mean);  // exact, not approximate
  EXPECT_EQ(r.image_digest, want.image_digest);
}

// One case per (routing, scheme, jobs), e.g. load_aware_Steins_jobs4.
INSTANTIATE_TEST_SUITE_P(RoutingsSchemes, KvServingPinned,
                         ::testing::Combine(::testing::ValuesIn(cases()),
                                            ::testing::Values(1u, 4u)),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const Case& c = std::get<0>(info.param);
                           return std::string(c.routing == Routing::kHash ? "hash_"
                                                                          : "load_aware_") +
                                  scheme_label(c.scheme) + "_jobs" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(KvServingPinned, PlannedAccessCounts) {
  const SystemConfig cfg = testutil::small_config();
  EXPECT_EQ(count_serving_accesses(cfg, Scheme::kSteins, pinned_config(Routing::kLoadAware)),
            21140u);
  EXPECT_EQ(count_serving_accesses(cfg, Scheme::kSteins, pinned_config(Routing::kHash)),
            25823u);
}

TEST(KvServingPinned, CrashReport) {
  const ServingCrashReport rep =
      run_serving_crash(testutil::small_config(), Scheme::kSteins,
                        pinned_config(Routing::kLoadAware), ServingCrashOptions{});
  EXPECT_EQ(rep.total_accesses, 21140u);
  EXPECT_EQ(rep.crash_at, 13587u);
  EXPECT_EQ(rep.committed_slots, 1500u);
  EXPECT_EQ(rep.slots_unavailable, 0u);
  EXPECT_TRUE(rep.verified) << rep.detail;
}

}  // namespace
}  // namespace steins::kv
