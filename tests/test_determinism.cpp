// Determinism differentials (ctest label: fast; also the TSan CI lane):
// every host-parallel execution path must produce bit-identical results to
// its sequential counterpart, and the paged NVM line store must behave
// exactly like the reference map it replaced. These tests are the
// contract behind `--jobs N`: parallelism is a wall-clock optimization,
// never an observable one.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

// Line-store differential: the paged line table (address-ordered pages with
// presence masks, a hashed page directory, a last-page cache, inline tag
// sidecars) must be observationally identical to the plain map the seed
// used — across directory growth, page boundaries, the ends of the address
// space, overwrites, remaps, sparse reads, and copies of the device.
namespace linestore {

struct Ref {
  Block block{};
  bool has_block = false;
  std::uint64_t tag = 0;
  bool has_tag = false;
  std::uint64_t tag2 = 0;
};
using RefMap = std::unordered_map<Addr, Ref>;

void expect_matches(const NvmDevice& dev, const RefMap& ref) {
  std::vector<Addr> blocks;
  std::vector<Addr> tags;
  for (const auto& [addr, r] : ref) {
    ASSERT_EQ(dev.contains(addr), r.has_block) << addr;
    ASSERT_EQ(dev.peek_block(addr), r.has_block ? r.block : Block{}) << addr;
    ASSERT_EQ(dev.read_tag(addr), r.tag) << addr;
    ASSERT_EQ(dev.read_tag2(addr), r.tag2) << addr;
    if (r.has_block) blocks.push_back(addr);
    if (r.has_tag) tags.push_back(addr);
  }
  std::sort(blocks.begin(), blocks.end());
  std::sort(tags.begin(), tags.end());
  EXPECT_EQ(dev.resident_blocks(0, dev.address_limit()), blocks);
  EXPECT_EQ(dev.resident_tags(0, dev.address_limit()), tags);
}

void write_block(NvmDevice& dev, RefMap& ref, Addr addr, std::uint64_t v) {
  const Block b = pattern_block(addr, v);
  dev.write_block(addr, b);
  Ref& r = ref[addr];
  r.block = b;
  r.has_block = true;
}

}  // namespace linestore

TEST(Determinism, LineTableMatchesReferenceMap) {
  using linestore::Ref;
  using linestore::RefMap;
  constexpr Addr kPage = NvmDevice::LineTable::kPageLines * kBlockSize;
  NvmConfig ncfg;
  ncfg.capacity_bytes = 1ULL << 30;
  NvmDevice dev(ncfg);
  const Addr limit = dev.address_limit();
  ASSERT_EQ(limit % kPage, 0u);
  // Both ends of the address space and the lines either side of two page
  // boundaries, mixed into the random stream below.
  const Addr edges[] = {0, kPage - kBlockSize, kPage, 5 * kPage - kBlockSize, 5 * kPage,
                        limit - kPage, limit - kBlockSize};
  RefMap ref;
  Xoshiro256 rng(42);
  // Dense lines (32k lines over 4k pages) plus sparse ones over the whole
  // address space, so the page directory grows several times past its
  // 256-slot start, with a skewed mix of writes, tag updates, and reads.
  for (int i = 0; i < 60000; ++i) {
    const std::uint64_t where = rng.next() % 100;
    Addr addr;
    if (where < 3) {
      addr = edges[rng.below(std::size(edges))];
    } else if (where < 13) {
      addr = rng.below(limit / kBlockSize) * kBlockSize;
    } else {
      addr = rng.below(1 << 15) * kBlockSize + (Addr{1} << 22);
    }
    const std::uint64_t pick = rng.next() % 100;
    if (pick < 50) {
      linestore::write_block(dev, ref, addr, rng.next());
    } else if (pick < 65) {
      const std::uint64_t t = rng.next();
      dev.write_tag(addr, t);
      ref[addr].tag = t;
      ref[addr].has_tag = true;
    } else if (pick < 75) {
      const std::uint64_t t = rng.next();
      dev.write_tag2(addr, t);
      ref[addr].tag2 = t;
    } else {
      const auto it = ref.find(addr);
      const bool has = it != ref.end();
      ASSERT_EQ(dev.contains(addr), has && it->second.has_block);
      ASSERT_EQ(dev.peek_block(addr), has && it->second.has_block ? it->second.block : Block{});
      ASSERT_EQ(dev.read_tag(addr), has ? it->second.tag : 0u);
      ASSERT_EQ(dev.read_tag2(addr), has ? it->second.tag2 : 0u);
    }
  }
  for (const Addr e : edges) linestore::write_block(dev, ref, e, 7);
  // Full sweep: every reference line reads back, and residency reports the
  // exact sorted block and tag sets (independent of page creation order).
  linestore::expect_matches(dev, ref);

  // A range that cuts pages on both sides reports exactly its own lines.
  const Addr lo = (Addr{1} << 22) + 3 * kBlockSize;
  const Addr hi = (Addr{1} << 22) + 40 * kPage + 5 * kBlockSize;
  std::vector<Addr> expect_cut;
  for (const auto& [addr, r] : ref) {
    if (r.has_block && addr >= lo && addr < hi) expect_cut.push_back(addr);
  }
  std::sort(expect_cut.begin(), expect_cut.end());
  ASSERT_FALSE(expect_cut.empty());
  EXPECT_EQ(dev.resident_blocks(lo, hi), expect_cut);

  // A remapped line stays stored but drops out of residency: it reads as
  // zero with no tags, and its page neighbours are untouched.
  const Addr remapped = kPage;
  ASSERT_TRUE(dev.remap_line(remapped));
  ref[remapped] = Ref{};
  linestore::expect_matches(dev, ref);

  // Copies are deep and each side's last-page cache stays its own: warm
  // `dev`'s cache on an edge page, copy, then mutate that page on each side.
  const Addr a = limit - kBlockSize;
  const Addr b = limit - kPage;
  ASSERT_TRUE(dev.contains(a));
  NvmDevice copied(dev);
  RefMap copied_ref = ref;
  linestore::write_block(copied, copied_ref, a, 1001);
  linestore::write_block(dev, ref, b, 1002);
  linestore::write_block(dev, ref, a, 1003);
  linestore::write_block(copied, copied_ref, b, 1004);

  // Copy-assign over a device whose cache points at the very page about to
  // be replaced: reads afterwards must see the source's lines, not its own.
  NvmDevice assigned(ncfg);
  assigned.write_block(a, pattern_block(a, 2001));
  assigned = dev;
  ASSERT_EQ(assigned.peek_block(a), dev.peek_block(a));  // first lookup: the cached page
  RefMap assigned_ref = ref;
  linestore::expect_matches(assigned, assigned_ref);
  linestore::write_block(assigned, assigned_ref, b, 2003);
  linestore::write_block(dev, ref, a, 2004);

  linestore::expect_matches(dev, ref);
  linestore::expect_matches(copied, copied_ref);
  linestore::expect_matches(assigned, assigned_ref);
}

// The store's own contract, below the device: for_each visits exactly
// size() lines, each once; a remapped line (`*ln = Line{}`) is still found
// while the device reports it absent; copies never share pages.
TEST(Determinism, LineTablePagesAndCopies) {
  using Line = NvmDevice::Line;
  using LineTable = NvmDevice::LineTable;
  constexpr Addr kPage = LineTable::kPageLines * kBlockSize;
  LineTable table;
  std::unordered_map<Addr, std::uint64_t> ref;
  Xoshiro256 rng(7);
  // 6000 pages with the last line of each page and the first of the next:
  // the directory doubles from 256 to 16k slots under the cached page.
  for (Addr p = 0; p < 6000; ++p) {
    for (const Addr line : {p * 3 * kPage + kPage - kBlockSize, p * 3 * kPage + kPage}) {
      const std::uint64_t v = rng.next();
      table.get_or_create(line).tag = v;
      ref[line] = v;
    }
    ASSERT_EQ(table.size(), ref.size());
  }
  ASSERT_EQ(table.find(kPage - 2 * kBlockSize), nullptr);  // same page, never created
  ASSERT_EQ(table.find(2 * kPage), nullptr);               // page never created

  const auto expect_visits = [](const LineTable& t, const std::unordered_map<Addr, std::uint64_t>& want) {
    std::unordered_map<Addr, std::uint64_t> seen;
    std::size_t visits = 0;
    t.for_each([&](Addr line, const Line& ln) {
      ++visits;
      seen[line] = ln.tag;
    });
    EXPECT_EQ(visits, t.size());
    EXPECT_EQ(seen, want);
  };
  expect_visits(table, ref);

  const Addr remapped = kPage;
  Line* ln = table.find(remapped);
  ASSERT_NE(ln, nullptr);
  *ln = Line{};
  ref[remapped] = 0;
  EXPECT_EQ(table.find(remapped), ln);
  EXPECT_EQ(table.size(), ref.size());
  expect_visits(table, ref);

  NvmConfig ncfg;
  NvmDevice dev(ncfg);
  dev.write_block(remapped, pattern_block(remapped, 1));
  ASSERT_TRUE(dev.remap_line(remapped));
  EXPECT_FALSE(dev.contains(remapped));
  EXPECT_EQ(dev.peek_block(remapped), Block{});

  // Copy-construct and copy-assign, then mutate each side on the page the
  // source last touched.
  const Addr hot = 5999 * 3 * kPage + kPage;
  ASSERT_NE(table.find(hot), nullptr);  // caches hot's page in `table`
  LineTable copy(table);
  LineTable assigned;
  assigned.get_or_create(hot).tag = 99;  // caches a page `assigned` drops
  assigned = table;
  auto copy_ref = ref;
  auto assigned_ref = ref;
  copy.get_or_create(hot).tag = 1;
  copy_ref[hot] = 1;
  assigned.get_or_create(hot + kBlockSize).tag = 2;
  assigned_ref[hot + kBlockSize] = 2;
  table.get_or_create(hot).tag = 3;
  ref[hot] = 3;
  EXPECT_NE(copy.find(hot), table.find(hot));
  EXPECT_NE(assigned.find(hot), table.find(hot));
  expect_visits(table, ref);
  expect_visits(copy, copy_ref);
  expect_visits(assigned, assigned_ref);
}

}  // namespace
}  // namespace steins
