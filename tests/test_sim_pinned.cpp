// Pinned simulated outputs. The simulator models crypto latency from
// operation counts, never from ciphertext, pad or tag values, so swapping
// the functional crypto kernels must leave every simulated number
// bit-identical. These cases run a small persistent workload under
// Steins-GC and Steins-SC, crash and recover it, keep running, and compare
// RunStats and RecoveryReport against values recorded from the SipHash-pad
// pipeline this one replaced — each case once per crypto backend.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "crypto/backend.hpp"
#include "sim/system.hpp"
#include "trace/workloads.hpp"

namespace steins {
namespace {

struct Pinned {
  Cycle cycles;
  std::uint64_t instructions;
  std::uint64_t nvm_reads;
  std::uint64_t nvm_writes;
  std::uint64_t hash_ops;
  std::uint64_t aes_ops;
  std::uint64_t read_latency_sum;
  std::uint64_t write_latency_sum;
  double recovery_seconds;
  std::uint64_t recovery_nvm_reads;
  std::uint64_t recovery_nodes;
};

struct Case {
  const char* workload;
  CounterMode mode;
  Pinned expect;
};

// Before the crash: 6000 accesses. After recovery and resync: 3000 more,
// whose statistics are the ones pinned.
Pinned run_case(const std::string& workload, CounterMode mode) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 64ULL << 20;
  cfg.secure.metadata_cache.size_bytes = 16 * 1024;
  cfg.counter_mode = mode;
  System sys(cfg, Scheme::kSteins);
  auto before = make_workload(workload, 6000, 7);
  sys.run(*before);
  const RecoveryResult r = sys.crash_and_recover();
  EXPECT_TRUE(r.ok()) << r.attack_detail;
  sys.resync_truth_after_crash();
  sys.reset_stats();
  auto after = make_workload(workload, 3000, 8);
  const RunStats s = sys.run(*after);
  return {s.cycles,
          s.instructions,
          s.mem.nvm_reads(),
          s.mem.nvm_writes(),
          s.mem.hash_ops,
          s.mem.aes_ops,
          s.mem.read_latency.sum,
          s.mem.write_latency.sum,
          r.seconds,
          r.nvm_reads,
          r.nodes_recovered};
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"pqueue",
       CounterMode::kGeneral,
       {3406820, 1443000, 3218, 3087, 6300, 6000, 1839860, 3781820, 0.00023050000000000002, 2251,
        245}},
      {"pqueue",
       CounterMode::kSplit,
       {3779125, 1443000, 4512, 4536, 7536, 9024, 1062495, 4154125, 0.0003102, 3087, 48}},
      {"phash",
       CounterMode::kGeneral,
       {5171724, 978000, 5771, 4740, 8335, 3000, 4130724, 1000500, 0.00024030000000000001, 2349,
        250}},
      {"phash",
       CounterMode::kSplit,
       {3115584, 978000, 3017, 2783, 4400, 3000, 2074584, 1000500, 0.0011793000000000001, 11739,
        255}},
  };
  return kCases;
}

// Readable parameter text in test listings (instead of the raw bytes).
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << (c.mode == CounterMode::kGeneral ? " Steins-GC" : " Steins-SC");
}

using Param = std::tuple<Case, crypto::CryptoBackend>;

class SimPinned : public ::testing::TestWithParam<Param> {};

TEST_P(SimPinned, RunStatsAndRecoveryMatchRecordedValues) {
  const auto& [c, backend] = GetParam();
  const crypto::ScopedCryptoBackend scoped(backend);
  const Pinned got = run_case(c.workload, c.mode);
  const Pinned& want = c.expect;
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.nvm_reads, want.nvm_reads);
  EXPECT_EQ(got.nvm_writes, want.nvm_writes);
  EXPECT_EQ(got.hash_ops, want.hash_ops);
  EXPECT_EQ(got.aes_ops, want.aes_ops);
  EXPECT_EQ(got.read_latency_sum, want.read_latency_sum);
  EXPECT_EQ(got.write_latency_sum, want.write_latency_sum);
  EXPECT_EQ(got.recovery_seconds, want.recovery_seconds);  // exact, not approximate
  EXPECT_EQ(got.recovery_nvm_reads, want.recovery_nvm_reads);
  EXPECT_EQ(got.recovery_nodes, want.recovery_nodes);
}

// One case per (workload, counter mode, backend), e.g. pqueue_GC_ttable.
INSTANTIATE_TEST_SUITE_P(Backends, SimPinned,
                         ::testing::Combine(::testing::ValuesIn(cases()),
                                            ::testing::Values(crypto::CryptoBackend::kRef,
                                                              crypto::CryptoBackend::kTtable,
                                                              crypto::CryptoBackend::kHw)),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const Case& c = std::get<0>(info.param);
                           return std::string(c.workload) +
                                  (c.mode == CounterMode::kGeneral ? "_GC_" : "_SC_") +
                                  crypto::backend_name(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace steins
