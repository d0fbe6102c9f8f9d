// Pinned outputs of the multi-client YCSB preset (one table interleaved
// over 2 controllers, no group commit). The values were recorded from the
// standalone interleaved YCSB driver this preset replaced; the serving
// engine must reproduce every one, at every worker count, so the scheme x
// mix table of BENCH_store.json regenerates bit-identically.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "kv/serving.hpp"
#include "test_util.hpp"

namespace steins::kv {
namespace {

struct PinnedHist {
  std::uint64_t count;
  double mean;
  double p50;
  double p99;
  std::uint64_t max;
};

struct Pinned {
  Cycle makespan;
  std::uint64_t nvm_writes;
  std::uint64_t reads;
  std::uint64_t updates;
  PinnedHist read_lat;
  PinnedHist update_lat;
};

struct Case {
  Scheme scheme;
  Mix mix;
  Pinned expect;
};

// small_config(), 3 clients, 9000 ops (two 8192-op epochs), 600 keys in a
// 4096-slot table, seed 5.
ServingResult run_case(const Case& c, unsigned jobs) {
  ServingConfig scfg = ycsb_preset();
  scfg.mix = c.mix;
  scfg.clients = 3;
  scfg.ops = 9000;
  scfg.keys = 600;
  scfg.slots = std::size_t{1} << 12;
  scfg.seed = 5;
  scfg.jobs = jobs;
  return run_sharded_serving(testutil::small_config(), c.scheme, scfg);
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {Scheme::kWriteBack, Mix::kA,
       {3447538, 9026, 4498, 4502,
        {4498, 301.11271676300578, 161.18712061229877, 1515.1568627450981, 2056},
        {4502, 1008.4649044868947, 1134.1293532338309, 2372.1237113402062, 2763}}},
      {Scheme::kWriteBack, Mix::kB,
       {2093125, 932, 8545, 455,
        {8545, 402.71796372147452, 326.63470557582076, 1504.0130718954249, 2301},
        {455, 283.8175824175824, 248, 847.4545454545455, 1656}}},
      {Scheme::kWriteBack, Mix::kC,
       {1818452, 22, 9000, 0,
        {9000, 341.46499999999997, 326.05788647072023, 331.99461521202602, 2301},
        {0, 0, 0, 0, 0}}},
      {Scheme::kWriteBack, Mix::kF,
       {3500353, 9026, 4498, 4502,
        {4498, 301.76789684304134, 161.18743400211193, 1513.8701298701299, 2260},
        {4502, 1028.4051532652154, 1136.9558441558443, 2343.9384615384615, 2461}}},
      {Scheme::kSteins, Mix::kA,
       {3490715, 9130, 4498, 4502,
        {4498, 303.92685638061363, 161.18994708994708, 1516.8761904761905, 4316},
        {4502, 1020.7647712127944, 1137.8944591029024, 2392.1632653061224, 2802}}},
      {Scheme::kSteins, Mix::kB,
       {2094036, 936, 8545, 455,
        {8545, 403.04330017554128, 326.63297733784839, 1504.6103896103896, 4316},
        {455, 283.8131868131868, 248, 847.4545454545455, 1655}}},
      {Scheme::kSteins, Mix::kC,
       {1819363, 26, 9000, 0,
        {9000, 341.77366666666666, 326.05652759084791, 331.99192462987889, 4316},
        {0, 0, 0, 0, 0}}},
      {Scheme::kSteins, Mix::kF,
       {3543671, 9130, 4498, 4502,
        {4498, 305.02023121387282, 161.18931782125858, 1514.3414634146341, 4316},
        {4502, 1040.3298533984896, 1142.0103092783506, 2370.1538461538462, 2504}}},
  };
  return kCases;
}

void PrintTo(const Case& c, std::ostream* os) {
  *os << (c.scheme == Scheme::kWriteBack ? "WB-GC/" : "Steins-GC/") << mix_name(c.mix);
}

void expect_hist(const LatencyHistogram& got, const PinnedHist& want, const char* what) {
  EXPECT_EQ(got.count(), want.count) << what;
  EXPECT_EQ(got.mean(), want.mean) << what;  // exact, not approximate
  EXPECT_EQ(got.percentile(50), want.p50) << what;
  EXPECT_EQ(got.percentile(99), want.p99) << what;
  EXPECT_EQ(got.max(), want.max) << what;
}

using Param = std::tuple<Case, unsigned>;

class KvYcsbPinned : public ::testing::TestWithParam<Param> {};

TEST_P(KvYcsbPinned, PresetMatchesRecordedValues) {
  const auto& [c, jobs] = GetParam();
  const ServingResult r = run_case(c, jobs);
  const Pinned& want = c.expect;
  EXPECT_EQ(r.makespan, want.makespan);
  EXPECT_EQ(r.nvm_writes, want.nvm_writes);
  EXPECT_EQ(r.reads, want.reads);
  EXPECT_EQ(r.updates, want.updates);
  expect_hist(r.read_lat, want.read_lat, "read_lat");
  expect_hist(r.update_lat, want.update_lat, "update_lat");
}

// One case per (scheme, mix, jobs), e.g. Steins_f_jobs2.
INSTANTIATE_TEST_SUITE_P(SchemesMixes, KvYcsbPinned,
                         ::testing::Combine(::testing::ValuesIn(cases()),
                                            ::testing::Values(1u, 2u)),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const Case& c = std::get<0>(info.param);
                           return std::string(c.scheme == Scheme::kWriteBack ? "WB_"
                                                                              : "Steins_") +
                                  mix_name(c.mix) + "_jobs" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace steins::kv
