// KV service throughput/tail-latency matrix: every scheme x YCSB mix.
//
// Both sections run the one serving engine (kv/serving.hpp). The matrix
// runs it as ycsb_preset(): one table interleaved over 2 controllers, 4
// closed-loop clients, no group commit. Each cell is an independent run
// over its own MultiControllerMemory, so the matrix fans out across
// --jobs threads with bit-identical results to the sequential run. Rows
// are "SCHEME/mix"; columns report throughput and the latency
// distribution in nanoseconds.
//
// Below the matrix, the concurrent serving sweep runs the engine with
// one shard per controller at 1, 2, and 4 shards on the Steins scheme —
// same offered load, load-aware routing, group commit on — and reports
// the simulated-throughput scaling plus, in --json, per-shard occupancy
// and the group-commit batch-size distribution. The committed
// BENCH_kv.json records both; CI requires the matrix and sweep rows to
// regenerate exactly and the 4-shard speedup to stay >= 1.5x.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kv/serving.hpp"

using namespace steins;
using namespace steins::kv;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);

  const SystemConfig cfg = [] {
    SystemConfig c = default_config();
    c.nvm.capacity_bytes = std::uint64_t{256} << 20;  // the KV region is small
    return c;
  }();

  const std::vector<Scheme> schemes = {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                                       Scheme::kScue, Scheme::kSteins};
  const std::vector<Mix> mixes = {Mix::kA, Mix::kB, Mix::kC, Mix::kF};

  std::printf("KV service throughput: schemes x YCSB mixes\n");
  std::printf("(%llu ops per cell, 4 clients x 2 controllers, zipf 0.99; %u job%s)\n\n",
              static_cast<unsigned long long>(opt.accesses), opt.jobs,
              opt.jobs == 1 ? "" : "s");

  struct Cell {
    Scheme scheme;
    Mix mix;
    ServingResult result;
  };
  std::vector<Cell> cells;
  for (const Scheme s : schemes) {
    for (const Mix m : mixes) cells.push_back({s, m, {}});
  }

  const auto run_cell = [&](std::size_t i) {
    ServingConfig ycfg = ycsb_preset();
    ycfg.mix = cells[i].mix;
    ycfg.ops = opt.accesses;
    cells[i].result = run_sharded_serving(cfg, cells[i].scheme, ycfg);
  };
  ThreadPool::run_indexed(opt.jobs, cells.size(), run_cell);

  const double ns = cfg.cycles_to_seconds(1) * 1e9;
  ResultTable table("KV throughput and latency by scheme/mix",
                    {"kops_s", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns"});
  for (const Cell& c : cells) {
    const LatencyHistogram& h = c.result.all_lat;
    table.add_row(scheme_name(c.scheme, cfg.counter_mode) + "/" + mix_name(c.mix),
                  {c.result.kops_per_sec, h.mean() * ns, h.percentile(50) * ns,
                   h.percentile(95) * ns, h.percentile(99) * ns, h.percentile(99.9) * ns});
  }
  table.print();

  // Concurrent serving sweep: same offered load at 1/2/4 shards. Shard
  // counts are simulated topology, not host threads, so the scaling rows
  // are deterministic on any runner; jobs only changes wall-clock.
  const std::vector<unsigned> shard_counts = {1, 2, 4};
  std::vector<ServingResult> serving(shard_counts.size());
  const auto run_serving_cell = [&](std::size_t i) {
    ServingConfig scfg;
    scfg.mix = Mix::kA;
    scfg.clients = 4;
    scfg.shards = shard_counts[i];
    scfg.ops = opt.accesses;
    scfg.keys = std::max<std::uint64_t>(opt.accesses / 4, 1000);
    // Per-shard tables sized for the worst case (every key on one shard)
    // so all rows share one layout and stay comparable.
    std::size_t slots = std::size_t{1} << 14;
    while (slots < 4 * scfg.keys) slots <<= 1;
    scfg.slots = slots;
    scfg.jobs = opt.jobs;
    serving[i] = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  };
  ThreadPool::run_indexed(opt.jobs, serving.size(), run_serving_cell);

  ResultTable stable("Concurrent serving scaling (Steins/a, load routing, group commit)",
                     {"kops_s", "speedup", "p50_ns", "p99_ns", "p999_ns", "mean_batch"});
  const double base_kops = serving[0].kops_per_sec;
  for (std::size_t i = 0; i < serving.size(); ++i) {
    const ServingResult& s = serving[i];
    stable.add_row("Steins/serve" + std::to_string(shard_counts[i]),
                   {s.kops_per_sec, base_kops > 0 ? s.kops_per_sec / base_kops : 0.0,
                    s.all_lat.percentile(50) * ns, s.all_lat.percentile(99) * ns,
                    s.all_lat.percentile(99.9) * ns, s.batch_sizes.mean()});
  }
  std::printf("\n");
  stable.print();

  if (!opt.json_path.empty()) {
    char buf[64];
    const auto num = [&](double v) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    std::ostringstream ex;
    ex << ",\n \"serving\": {\"scheme\": \"steins\", \"mix\": \"a\", \"rows\": [";
    for (std::size_t i = 0; i < serving.size(); ++i) {
      const ServingResult& s = serving[i];
      ex << (i ? ",\n  " : "\n  ") << "{\"shards\": " << shard_counts[i]
         << ", \"kops_per_sec\": " << num(s.kops_per_sec)
         << ", \"ops\": " << s.ops << ", \"shed_ops\": " << s.shed_ops
         << ", \"commit_writes\": " << s.commit_writes
         << ", \"image_digest\": \"" << std::hex << s.image_digest << std::dec
         << "\", \"batch\": {\"count\": " << s.batch_sizes.count()
         << ", \"mean\": " << num(s.batch_sizes.mean())
         << ", \"p50\": " << num(s.batch_sizes.percentile(50))
         << ", \"p95\": " << num(s.batch_sizes.percentile(95))
         << ", \"max\": " << s.batch_sizes.max() << "}, \"occupancy\": [";
      for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
        ex << (sh ? ", " : "") << num(s.shards[sh].occupancy);
      }
      ex << "], \"shard_ops\": [";
      for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
        ex << (sh ? ", " : "") << s.shards[sh].ops;
      }
      ex << "]}";
    }
    ex << "\n ], \"speedup_4\": "
       << num(base_kops > 0 ? serving.back().kops_per_sec / base_kops : 0.0) << "}";
    ex << ",\n \"serving_table\": " << stable.to_json();
    if (bench::write_table_json(opt.json_path, table, opt, ex.str())) {
      std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
    }
  }
  return 0;
}
