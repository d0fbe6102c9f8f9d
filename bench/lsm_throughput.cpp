// LSM engine throughput matrix: every scheme x YCSB mix over a
// compaction-heavy configuration (small memtable, aggressive L0 trigger,
// zipf 0.99), so the measured window includes steady WAL append, memtable
// flush, and compaction work — not just memtable hits.
//
// Each cell is an independent single-client engine run over its own
// System, so the matrix fans out across --jobs threads with bit-identical
// results to the sequential run. Rows are "SCHEME/mix"; columns report
// throughput, tail latency, and both write-amplification views:
//
//   wa       scheme-level: NVM block writes (data + counters + tree +
//            shadow) * 64 per user byte put
//   wa_log   engine-level: WAL + run bytes the engine persisted per user
//            byte put
//
// The gap between the two is the security tax on a log-structured write
// path.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "kv/lsm/lsm_ycsb.hpp"

using namespace steins;
using namespace steins::lsm;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);

  const SystemConfig cfg = [] {
    SystemConfig c = default_config();
    c.nvm.capacity_bytes = std::uint64_t{64} << 20;  // the LSM region is small
    return c;
  }();

  // Compaction-heavy engine geometry: a 2 KiB memtable over a 2k-key
  // universe keeps flushes and L0 compactions running throughout the
  // measured window.
  LsmConfig engine;
  engine.memtable_limit_bytes = 2048;
  engine.l0_compact_trigger = 4;

  const std::vector<Scheme> schemes = {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                                       Scheme::kScue, Scheme::kSteins};
  const std::vector<kv::Mix> mixes = {kv::Mix::kA, kv::Mix::kB, kv::Mix::kC, kv::Mix::kF};

  // The figure benches default to 200k accesses; an LSM op is much heavier
  // than a trace access, so cap the uncustomized default at 20k ops/cell.
  const std::uint64_t ops = opt.accesses > 20'000 && std::getenv("STEINS_ACCESSES") == nullptr
                                ? 20'000
                                : opt.accesses;

  std::printf("LSM engine throughput: schemes x YCSB mixes (compaction-heavy)\n");
  std::printf("(%llu ops per cell, memtable %llu B, L0 trigger %llu, zipf 0.99; %u job%s)\n\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(engine.memtable_limit_bytes),
              static_cast<unsigned long long>(engine.l0_compact_trigger), opt.jobs,
              opt.jobs == 1 ? "" : "s");

  struct Cell {
    Scheme scheme;
    kv::Mix mix;
    LsmYcsbResult result;
  };
  std::vector<Cell> cells;
  for (const Scheme s : schemes) {
    for (const kv::Mix m : mixes) cells.push_back({s, m, {}});
  }

  const auto run_cell = [&](std::size_t i) {
    LsmYcsbConfig ycfg;
    ycfg.mix = cells[i].mix;
    ycfg.ops = ops;
    ycfg.engine = engine;
    cells[i].result = run_lsm_ycsb(cfg, cells[i].scheme, ycfg);
  };
  ThreadPool::run_indexed(opt.jobs, cells.size(), run_cell);

  const double ns = cfg.cycles_to_seconds(1) * 1e9;
  ResultTable table("LSM throughput, latency, and write amplification by scheme/mix",
                    {"kops_s", "p50_ns", "p99_ns", "wa", "wa_log", "flushes", "compactions"});
  for (const Cell& c : cells) {
    const LatencyHistogram& h = c.result.all_lat;
    table.add_row(scheme_name(c.scheme, cfg.counter_mode) + "/" + kv::mix_name(c.mix),
                  {c.result.kops_per_sec, h.percentile(50) * ns, h.percentile(99) * ns,
                   c.result.write_amp, c.result.logical_write_amp,
                   static_cast<double>(c.result.engine_stats.flushes),
                   static_cast<double>(c.result.engine_stats.compactions)});
  }
  table.print();
  if (!opt.json_path.empty()) {
    if (bench::write_table_json(opt.json_path, table, opt)) {
      std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
    }
  }
  return 0;
}
