// Pinned simulated outputs. The simulator models crypto latency from
// operation counts, never from ciphertext, pad or tag values, so swapping
// the functional crypto kernels must leave every simulated number
// bit-identical. These cases run a small workload, crash and recover it,
// resync the ground truth, keep running, and compare RunStats and
// RecoveryReport against recorded values — each case once per crypto
// backend. The Steins-GC/SC persistent rows were recorded from the
// SipHash-pad pipeline the current one replaced. The ASIT, STAR and
// no-flush rows pin the crash resync itself: the gcc trace never flushes,
// so the crash loses every store still in the caches; the resync must zero
// those blocks and reload the stale ones with exactly the pinned reads.
#include <gtest/gtest.h>

#include <cstring>
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
  std::uint64_t resync_nvm_reads;  // device reads the truth resync issued
};

struct Case {
  const char* workload;
  Scheme scheme;
  CounterMode mode;
  const char* tag;  // scheme label in test names: GC, SC, ASIT, STAR
  bool small_caches;  // shrink L1-L3 so a no-flush trace evicts before the crash
  Pinned expect;
};

SystemConfig pinned_config(CounterMode mode, bool small_caches = false) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 64ULL << 20;
  cfg.secure.metadata_cache.size_bytes = 16 * 1024;
  cfg.counter_mode = mode;
  if (small_caches) {
    cfg.l1.size_bytes = 4 * 1024;
    cfg.l2.size_bytes = 16 * 1024;
    cfg.l3.size_bytes = 64 * 1024;
  }
  return cfg;
}

// Before the crash: 6000 accesses. After recovery and resync: 3000 more,
// whose statistics are the ones pinned.
Pinned run_case(const Case& c) {
  System sys(pinned_config(c.mode, c.small_caches), c.scheme);
  auto before = make_workload(c.workload, 6000, 7);
  sys.run(*before);
  const RecoveryResult r = sys.crash_and_recover();
  EXPECT_TRUE(r.ok()) << r.attack_detail;
  const std::uint64_t reads_before_resync = sys.memory().stats().nvm_reads();
  sys.resync_truth_after_crash();
  const std::uint64_t resync_reads = sys.memory().stats().nvm_reads() - reads_before_resync;
  sys.reset_stats();
  auto after = make_workload(c.workload, 3000, 8);
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
          r.nodes_recovered,
          resync_reads};
}

const std::vector<Case>& cases() {
  static const std::vector<Case> kCases = {
      {"pqueue",
       Scheme::kSteins,
       CounterMode::kGeneral,
       "GC",
       false,
       {3406820, 1443000, 3218, 3087, 6300, 6000, 1839860, 3781820, 0.00023050000000000002, 2251,
        245, 3388}},
      {"pqueue",
       Scheme::kSteins,
       CounterMode::kSplit,
       "SC",
       false,
       {3779125, 1443000, 4512, 4536, 7536, 9024, 1062495, 4154125, 0.0003102, 3087, 48, 3001}},
      {"phash",
       Scheme::kSteins,
       CounterMode::kGeneral,
       "GC",
       false,
       {5171724, 978000, 5771, 4740, 8335, 3000, 4130724, 1000500, 0.00024030000000000001, 2349,
        250, 6365}},
      {"phash",
       Scheme::kSteins,
       CounterMode::kSplit,
       "SC",
       false,
       {3115584, 978000, 3017, 2783, 4400, 3000, 2074584, 1000500, 0.0011793000000000001, 11739,
        255, 3808}},
      {"pqueue", Scheme::kAnubis, CounterMode::kGeneral, "ASIT", false,
       {4851592, 1443000, 3217, 6126, 18524, 6000, 2068044, 7584592, 9.5700000000000009e-05, 273,
        228, 3362}},
      {"pqueue", Scheme::kStar, CounterMode::kGeneral, "STAR", false,
       {3384137, 1443000, 3215, 3027, 15974, 6000, 1818137, 4167201, 0.00020560000000000001, 2056,
        228, 3414}},
      {"gcc", Scheme::kSteins, CounterMode::kGeneral, "GC", true,
       {6309410, 3344952, 11781, 1976, 7009, 2966, 3975422, 740531, 0.00023389999999999999, 2288,
        239, 4493}},
      {"gcc", Scheme::kAnubis, CounterMode::kGeneral, "ASIT", true,
       {7084954, 3344952, 11805, 3781, 14443, 2966, 5125930, 1726894, 7.1100000000000007e-05, 462,
        83, 4340}},
  };
  return kCases;
}

// Readable parameter text in test listings (instead of the raw bytes).
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.workload << ' ' << scheme_name(c.scheme, c.mode);
}

using Param = std::tuple<Case, crypto::CryptoBackend>;

class SimPinned : public ::testing::TestWithParam<Param> {};

TEST_P(SimPinned, RunStatsAndRecoveryMatchRecordedValues) {
  const auto& [c, backend] = GetParam();
  const crypto::ScopedCryptoBackend scoped(backend);
  const Pinned got = run_case(c);
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
  EXPECT_EQ(got.resync_nvm_reads, want.resync_nvm_reads);
}

// One case per (workload, scheme, backend), e.g. pqueue_GC_ttable.
INSTANTIATE_TEST_SUITE_P(Backends, SimPinned,
                         ::testing::Combine(::testing::ValuesIn(cases()),
                                            ::testing::Values(crypto::CryptoBackend::kRef,
                                                              crypto::CryptoBackend::kTtable,
                                                              crypto::CryptoBackend::kHw)),
                         [](const ::testing::TestParamInfo<Param>& info) {
                           const Case& c = std::get<0>(info.param);
                           return std::string(c.workload) + "_" + c.tag + "_" +
                                  crypto::backend_name(std::get<1>(info.param));
                         });

Block marked(std::uint64_t v) {
  Block b{};
  std::memcpy(b.data(), &v, 8);
  return b;
}

// What a rebooted program observes after the crash resync: stores that never
// reached the controller are gone (zero), a stale persisted image is what
// survives, and a line recovery quarantined keeps failing typed instead of
// serving plaintext — on the first load and on every later one.
TEST(SimResync, LostBlocksLoadZeroAndQuarantinedStayTyped) {
  System sys(pinned_config(CounterMode::kGeneral), Scheme::kSteins);
  const Addr lost = 0x40000, kept = 0x41000, stale = 0x42000, dead = 0x43000;
  sys.store(lost, marked(1));  // never persisted
  sys.store(kept, marked(2));
  sys.persist(kept);
  sys.store(stale, marked(3));
  sys.persist(stale);
  sys.store(stale, marked(4));  // the newer value dies in the caches
  sys.store(dead, marked(5));
  sys.persist(dead);

  const RecoveryResult r = sys.crash_and_recover([&](SecureMemory& mem) {
    mem.device().inject_ecc_error(dead, 17, /*correctable=*/false, 0);
  });
  ASSERT_TRUE(r.status.ok()) << r.status.to_string();
  ASSERT_FALSE(r.attack_detected) << r.attack_detail;
  sys.resync_truth_after_crash();

  EXPECT_EQ(sys.load(lost), zero_block());
  EXPECT_EQ(sys.load(kept), marked(2));
  EXPECT_EQ(sys.load(stale), marked(3));
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)sys.load(dead);
      ADD_FAILURE() << "quarantined block served a load";
    } catch (const StatusError& e) {
      EXPECT_TRUE(is_unavailable(e.code())) << e.what();
    }
  }

  // A zeroed slot behaves like a never-stored one: a new store starts from
  // zero and round-trips.
  sys.store(lost, marked(6));
  sys.persist(lost);
  EXPECT_EQ(sys.load(lost), marked(6));
}

}  // namespace
}  // namespace steins
