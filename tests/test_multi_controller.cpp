// Multi-controller model (paper §IV-F): routing, isolation, parallel
// frontiers, aggregate recovery.
#include <gtest/gtest.h>

#include <map>

#include "sim/multi_controller.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::pattern_block;

SystemConfig mc_config() {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 1ULL << 30;
  return cfg;
}

TEST(MultiController, RoundTripAcrossControllers) {
  MultiControllerMemory mem(mc_config(), Scheme::kSteins, 3);
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const Addr addr = rng.below(1 << 20) * kBlockSize;
    const std::uint64_t v = ++versions[addr];
    now = mem.write_block(addr, pattern_block(addr, v), now);
  }
  for (const auto& [addr, v] : versions) {
    Block out;
    mem.read_block(addr, now, &out);
    ASSERT_EQ(out, pattern_block(addr, v));
  }
}

TEST(MultiController, DisjointStreamsAdvanceIndependentFrontiers) {
  // Two clients hammering different DIMMs: the makespan is roughly one
  // client's worth of work, not two.
  const std::size_t dimm = 1 << 20;
  MultiControllerMemory two(mc_config(), Scheme::kSteins, 2, dimm);
  MultiControllerMemory one(mc_config(), Scheme::kSteins, 1, dimm);
  Block data{};
  Cycle a0 = 0, a1 = 0, b0 = 0, b1 = 0;
  for (int i = 0; i < 2000; ++i) {
    const Addr lo = static_cast<Addr>(i % 512) * kBlockSize;
    const Addr hi = dimm + static_cast<Addr>(i % 512) * kBlockSize;
    a0 = two.write_block(lo, data, a0);
    a1 = two.write_block(hi, data, a1);
    b0 = one.write_block(lo, data, b0);
    b1 = one.write_block(hi, data, b1);
  }
  EXPECT_LT(two.max_frontier(), one.max_frontier());
}

TEST(MultiController, RecoveryAggregatesAndParallelizes) {
  MultiControllerMemory mem(mc_config(), Scheme::kSteins, 2);
  Block data{};
  Cycle now = 0;
  Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    now = mem.write_block(rng.below(1 << 20) * kBlockSize, data, now);
  }
  const RecoveryResult r = mem.crash_and_recover_all();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  EXPECT_GT(r.nodes_recovered, 0u);
  // The combined time is the max over controllers, so it must not exceed
  // the per-controller sums.
  double sum = 0;
  for (unsigned i = 0; i < mem.controllers(); ++i) sum += r.seconds;
  EXPECT_LE(r.seconds, sum);
}

TEST(MultiController, DataSurvivesCrashOnEveryController) {
  MultiControllerMemory mem(mc_config(), Scheme::kSteins, 4);
  std::map<Addr, std::uint64_t> versions;
  Cycle now = 0;
  Xoshiro256 rng(9);
  for (int i = 0; i < 1500; ++i) {
    const Addr addr = rng.below(1 << 19) * kBlockSize;
    const std::uint64_t v = ++versions[addr];
    now = mem.write_block(addr, pattern_block(addr, v), now);
  }
  ASSERT_TRUE(mem.crash_and_recover_all().ok());
  for (const auto& [addr, v] : versions) {
    Block out;
    mem.read_block(addr, 0, &out);
    ASSERT_EQ(out, pattern_block(addr, v));
  }
}

// Both guards stay armed in Release: zero controllers would leave
// max_frontier() dereferencing end(), and an out-of-range injector index
// would write past the per-controller arrays.
TEST(MultiController, RejectsZeroControllers) {
  try {
    MultiControllerMemory mem(mc_config(), Scheme::kSteins, 0);
    FAIL() << "a controller-less memory was constructed";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvariant);
  }
}

TEST(MultiController, RejectsOutOfRangeFaultInjector) {
  MultiControllerMemory mem(mc_config(), Scheme::kSteins, 2);
  try {
    mem.set_fault_injector(2, nullptr);
    FAIL() << "injector index 2 accepted on a 2-controller memory";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvariant);
  }
  mem.set_fault_injector(1, nullptr);  // in range: accepted
}

}  // namespace
}  // namespace steins
