// Ablation: metadata cache size sweep (paper §IV: "larger cache sizes
// deliver higher performance"). Steins-GC vs WB-GC across 64 KB .. 1 MB.
#include <map>

#include "bench_common.hpp"

using namespace steins;

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  std::printf("Ablation: metadata cache size (workload: mcf)\n\n");

  const std::vector<std::size_t> sizes = {64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20};
  ResultTable table("Execution cycles normalized to 256KB",
                    {"WB-GC", "Steins-GC", "Steins-GC mcache hit%"});

  std::map<std::string, double> base_cycles;
  for (const std::size_t size : sizes) {
    double wb = 0, st = 0, hit = 0;
    for (const auto& [scheme, out] :
         {std::pair<Scheme, double*>{Scheme::kWriteBack, &wb}, {Scheme::kSteins, &st}}) {
      SystemConfig cfg = default_config();
      cfg.secure.metadata_cache.size_bytes = size;
      System sys(cfg, scheme);
      auto trace = make_workload("mcf", opt.accesses + opt.warmup);
      const RunStats stats = sys.run(*trace, opt.warmup);
      *out = static_cast<double>(stats.cycles);
      if (scheme == Scheme::kSteins) hit = stats.mcache_hit_rate * 100.0;
    }
    if (size == (256 << 10)) {
      base_cycles["wb"] = wb;
      base_cycles["st"] = st;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "%zuKB", size / 1024);
    table.add_row(name, {wb, st, hit});
  }

  // Normalize the cycle columns to the 256 KB row.
  ResultTable norm("Execution cycles (normalized to the 256KB row)",
                   {"WB-GC", "Steins-GC", "Steins mcache hit%"});
  for (const auto& [name, vals] : table.rows()) {
    norm.add_row(name, {vals[0] / base_cycles["wb"], vals[1] / base_cycles["st"], vals[2]});
  }
  norm.print();
  return 0;
}
