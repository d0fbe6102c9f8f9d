// Determinism differentials (ctest label: fast; also the TSan CI lane):
// every host-parallel execution path must produce bit-identical results to
// its sequential counterpart, and the arena-backed NVM line table must
// behave exactly like the reference map it replaced. These tests are the
// contract behind `--jobs N`: parallelism is a wall-clock optimization,
// never an observable one.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "kv/serving.hpp"
#include "nvm/nvm_device.hpp"
#include "sim/experiment.hpp"
#include "sim/multi_controller.hpp"
#include "test_util.hpp"

namespace steins {
namespace {

using testutil::pattern_block;

SystemConfig det_config() {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;
  return cfg;
}

// Field-by-field equality of everything a figure metric can read. A looser
// "approximately equal" here would let a racy merge hide behind rounding.
void expect_run_identical(const RunStats& a, const RunStats& b, const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.instructions, b.instructions) << where;
  EXPECT_EQ(a.accesses, b.accesses) << where;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << where;
  EXPECT_EQ(a.read_latency_cycles, b.read_latency_cycles) << where;
  EXPECT_EQ(a.write_latency_cycles, b.write_latency_cycles) << where;
  EXPECT_EQ(a.read_latency_p50, b.read_latency_p50) << where;
  EXPECT_EQ(a.read_latency_p99, b.read_latency_p99) << where;
  EXPECT_EQ(a.write_latency_p50, b.write_latency_p50) << where;
  EXPECT_EQ(a.write_latency_p99, b.write_latency_p99) << where;
  EXPECT_EQ(a.mcache_hit_rate, b.mcache_hit_rate) << where;
  EXPECT_EQ(a.mem.data_reads, b.mem.data_reads) << where;
  EXPECT_EQ(a.mem.data_writes, b.mem.data_writes) << where;
  EXPECT_EQ(a.mem.meta_reads, b.mem.meta_reads) << where;
  EXPECT_EQ(a.mem.meta_writes, b.mem.meta_writes) << where;
  EXPECT_EQ(a.mem.hash_ops, b.mem.hash_ops) << where;
  EXPECT_EQ(a.mem.aes_ops, b.mem.aes_ops) << where;
}

void expect_hist_identical(const LatencyHistogram& a, const LatencyHistogram& b,
                           const std::string& where) {
  EXPECT_EQ(a.count(), b.count()) << where;
  EXPECT_EQ(a.max(), b.max()) << where;
  EXPECT_EQ(a.mean(), b.mean()) << where;  // identical sums, not just close
  EXPECT_EQ(a.percentile(50.0), b.percentile(50.0)) << where;
  EXPECT_EQ(a.percentile(99.0), b.percentile(99.0)) << where;
}

// The matrix runner's jobs knob must be invisible in the output for any
// worker count: fewer workers than cells, more workers than cells, and the
// degenerate single-worker pool all reduce to the jobs=1 stream.
TEST(Determinism, MatrixJobsSweepIsBitIdentical) {
  ExperimentRunner runner(det_config());
  const std::vector<std::string> wls = {"gcc", "phash"};
  const auto schemes = sc_comparison_schemes();
  const auto seq = runner.run_matrix(wls, schemes, 2000, 200, false, /*jobs=*/1);
  for (const unsigned jobs : {2u, 3u, 8u}) {
    const auto par = runner.run_matrix(wls, schemes, 2000, 200, false, jobs);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const std::string where = "jobs=" + std::to_string(jobs) + " " +
                                seq[i].workload + "/" + seq[i].scheme_label;
      EXPECT_EQ(seq[i].workload, par[i].workload) << where;
      EXPECT_EQ(seq[i].scheme_label, par[i].scheme_label) << where;
      expect_run_identical(seq[i].stats, par[i].stats, where);
    }
  }
}

// The YCSB preset's replay fans controllers out across worker threads;
// the merged result (counts, histograms, makespan) must match the inline
// replay.
TEST(Determinism, YcsbParallelReplayIsBitIdentical) {
  const SystemConfig cfg = det_config();
  kv::ServingConfig ycfg = kv::ycsb_preset();
  ycfg.mix = kv::Mix::kA;
  ycfg.clients = 4;
  ycfg.shards = 4;
  ycfg.ops = 8000;
  ycfg.keys = 2000;
  ycfg.slots = std::size_t{1} << 13;
  const kv::ServingResult seq = run_sharded_serving(cfg, Scheme::kSteins, ycfg);
  for (const unsigned jobs : {2u, 4u}) {
    kv::ServingConfig pcfg = ycfg;
    pcfg.jobs = jobs;
    const kv::ServingResult par = run_sharded_serving(cfg, Scheme::kSteins, pcfg);
    const std::string where = "jobs=" + std::to_string(jobs);
    EXPECT_EQ(seq.ops, par.ops) << where;
    EXPECT_EQ(seq.reads, par.reads) << where;
    EXPECT_EQ(seq.updates, par.updates) << where;
    EXPECT_EQ(seq.makespan, par.makespan) << where;
    EXPECT_EQ(seq.nvm_writes, par.nvm_writes) << where;
    expect_hist_identical(seq.read_lat, par.read_lat, where + " read_lat");
    expect_hist_identical(seq.update_lat, par.update_lat, where + " update_lat");
    expect_hist_identical(seq.all_lat, par.all_lat, where + " all_lat");
  }
}

// Aggregate recovery across controllers: the parallel walk must reach the
// same verdict, the same counts, and the same modeled time as jobs=1.
TEST(Determinism, ParallelRecoveryIsBitIdentical) {
  const SystemConfig cfg = det_config();
  auto prepare = [&] {
    auto mem = std::make_unique<MultiControllerMemory>(cfg, Scheme::kSteins, 4);
    Xoshiro256 rng(7);
    Cycle now = 0;
    for (int i = 0; i < 3000; ++i) {
      const Addr addr = rng.below(1 << 20) * kBlockSize;
      now = mem->write_block(addr, pattern_block(addr, static_cast<std::uint64_t>(i)), now);
    }
    return mem;
  };
  auto a = prepare();
  auto b = prepare();
  const RecoveryResult seq = a->crash_and_recover_all(/*jobs=*/1);
  const RecoveryResult par = b->crash_and_recover_all(/*jobs=*/4);
  EXPECT_EQ(seq.attack_detected, par.attack_detected);
  EXPECT_EQ(seq.attack_detail, par.attack_detail);
  EXPECT_EQ(seq.nodes_recovered, par.nodes_recovered);
  EXPECT_EQ(seq.blocks_salvaged, par.blocks_salvaged);
  EXPECT_EQ(seq.blocks_quarantined, par.blocks_quarantined);
  EXPECT_EQ(seq.nvm_reads, par.nvm_reads);
  EXPECT_EQ(seq.nvm_writes, par.nvm_writes);
  EXPECT_EQ(seq.seconds, par.seconds);
  // Beyond the report: the post-recovery NVM images themselves (blocks and
  // ECC-colocated tags) must be byte-identical controller by controller.
  for (unsigned c = 0; c < a->controllers(); ++c) {
    NvmDevice& da = a->controller(c).device();
    NvmDevice& db = b->controller(c).device();
    const std::vector<Addr> ra = da.resident_blocks(0, da.address_limit());
    ASSERT_EQ(ra, db.resident_blocks(0, db.address_limit())) << "controller " << c;
    for (const Addr addr : ra) {
      ASSERT_EQ(da.peek_block(addr), db.peek_block(addr)) << "controller " << c;
      ASSERT_EQ(da.read_tag(addr), db.read_tag(addr)) << "controller " << c;
    }
  }
}

// Arena differential: the open-addressed line table (raw-storage arena,
// inline tag sidecars) must be observationally identical to the plain map
// the seed used — across growth, overwrites, and sparse reads.
TEST(Determinism, LineTableMatchesReferenceMap) {
  NvmConfig ncfg;
  ncfg.capacity_bytes = 1ULL << 30;
  NvmDevice dev(ncfg);
  struct Ref {
    Block block{};
    bool has_block = false;
    std::uint64_t tag = 0;
    std::uint64_t tag2 = 0;
  };
  std::unordered_map<Addr, Ref> ref;
  Xoshiro256 rng(42);
  // Enough distinct lines to force several table growths past the 4096-slot
  // initial arena, with a skewed mix of writes, tag updates, and reads.
  for (int i = 0; i < 60000; ++i) {
    const Addr addr = rng.below(1 << 15) * kBlockSize + (Addr{1} << 22);
    const std::uint64_t pick = rng.next() % 100;
    if (pick < 50) {
      const Block b = pattern_block(addr, rng.next());
      dev.write_block(addr, b);
      Ref& r = ref[addr];
      r.block = b;
      r.has_block = true;
    } else if (pick < 65) {
      const std::uint64_t t = rng.next();
      dev.write_tag(addr, t);
      ref[addr].tag = t;
    } else if (pick < 75) {
      const std::uint64_t t = rng.next();
      dev.write_tag2(addr, t);
      ref[addr].tag2 = t;
    } else {
      const auto it = ref.find(addr);
      ASSERT_EQ(dev.contains(addr), it != ref.end() && it->second.has_block);
      const Block expect = it != ref.end() && it->second.has_block ? it->second.block : Block{};
      ASSERT_EQ(dev.peek_block(addr), expect);
      ASSERT_EQ(dev.read_tag(addr), it != ref.end() ? it->second.tag : 0u);
      ASSERT_EQ(dev.read_tag2(addr), it != ref.end() ? it->second.tag2 : 0u);
    }
  }
  // Full sweep: every reference line reads back, and residency reports the
  // exact sorted block set (order independent of hash layout).
  std::vector<Addr> expect_resident;
  for (const auto& [addr, r] : ref) {
    ASSERT_EQ(dev.peek_block(addr), r.has_block ? r.block : Block{});
    ASSERT_EQ(dev.read_tag(addr), r.tag);
    if (r.has_block) expect_resident.push_back(addr);
  }
  std::sort(expect_resident.begin(), expect_resident.end());
  EXPECT_EQ(dev.resident_blocks(0, dev.address_limit()), expect_resident);
}

}  // namespace
}  // namespace steins
