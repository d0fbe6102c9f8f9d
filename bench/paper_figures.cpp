// Table I, Figs. 9–16 (+ p99 for Figs. 10/11) and the Fig. 17 recovery sweep
// in one run, optionally recorded as one JSON file (BENCH_paper.json):
//
//   paper_figures [accesses [warmup]] [--jobs N] [--json FILE]
//
// One run_matrix over the union of the GC and SC sets (6 specs x 10
// workloads) feeds every matrix figure: a cell depends only on its
// (workload, spec), so each table equals a run of just its own set.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sit/geometry.hpp"

using namespace steins;

namespace {

double exec_time(const RunStats& s) { return static_cast<double>(s.cycles); }
double write_latency(const RunStats& s) { return s.write_latency_cycles; }
double write_p99(const RunStats& s) { return s.write_latency_p99; }
double read_latency(const RunStats& s) { return s.read_latency_cycles; }
double read_p99(const RunStats& s) { return s.read_latency_p99; }
double write_traffic(const RunStats& s) { return static_cast<double>(s.mem.nvm_writes()); }
double energy(const RunStats& s) { return s.energy_nj; }

struct Figure {
  const char* id;  // key under "figures" in the JSON
  const char* title;
  std::vector<SchemeSpec> (*schemes)();  // the first spec is the baseline
  double (*metric)(const RunStats&);
  double (*p99)(const RunStats&);  // tail companion table, or nullptr
};

constexpr auto gc = gc_comparison_schemes;
constexpr auto sc = sc_comparison_schemes;

// Paper shapes (gmean) are checked by `tools/ci/bench_gate.py paper`.
const Figure kFigures[] = {
    {"fig09", "Fig. 9: Execution time (normalized to WB-GC)", gc, exec_time, nullptr},
    {"fig10", "Fig. 10: Write latency (normalized to WB-GC)", gc, write_latency, write_p99},
    {"fig11", "Fig. 11: Read latency (normalized to WB-GC)", gc, read_latency, read_p99},
    {"fig12", "Fig. 12: Execution time (normalized to WB-SC)", sc, exec_time, nullptr},
    {"fig13", "Fig. 13: Write traffic (normalized to WB-GC)", gc, write_traffic, nullptr},
    {"fig14", "Fig. 14: Write traffic (normalized to WB-SC)", sc, write_traffic, nullptr},
    {"fig15", "Fig. 15: Energy consumption (normalized to WB-GC)", gc, energy, nullptr},
    {"fig16", "Fig. 16: Energy consumption (normalized to WB-SC)", sc, energy, nullptr},
};

// Table I: the default configuration and the SIT geometry it implies.
ResultTable table1(std::string* json) {
  std::printf("Table I: The configurations of the evaluated NVM system\n\n");
  const SystemConfig cfg = default_config();
  std::printf("%s\n", cfg.describe().c_str());

  std::printf("Derived SIT geometry\n");
  ResultTable t("Table I: derived SIT geometry", {"levels", "leaves"});
  for (const CounterMode mode : {CounterMode::kGeneral, CounterMode::kSplit}) {
    const SitGeometry geo(cfg.nvm, mode);
    const char* name = mode == CounterMode::kGeneral ? "GC" : "SC";
    std::printf("  %s tree height       %u levels (including root), %llu leaves\n", name,
                geo.height(), static_cast<unsigned long long>(geo.level_count(0)));
    t.add_row(name, {static_cast<double>(geo.height()), static_cast<double>(geo.level_count(0))});
  }
  std::printf("  NVM read latency     %llu cycles, write occupancy %llu cycles\n\n",
              static_cast<unsigned long long>(cfg.nvm_read_cycles()),
              static_cast<unsigned long long>(cfg.nvm_write_cycles()));
  *json += ",\n \"config\": {\"describe\": \"" + json_escape(cfg.describe()) +
           "\", \"nvm_read_cycles\": " + std::to_string(cfg.nvm_read_cycles()) +
           ", \"nvm_write_cycles\": " + std::to_string(cfg.nvm_write_cycles()) + "}";
  return t;
}

// Fig. 17, following the paper's methodology (§IV-D): every metadata-cache
// line is dirty at crash time. One data block is written under each of 2x
// as many distinct leaves as the cache has lines, then the scheme crashes
// and its recovery is timed (100 ns per metadata read+verify).
ResultTable fig17(unsigned jobs) {
  const std::vector<std::size_t> sizes = {256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20};
  // The recoverable schemes of both sets: ASIT, STAR, Steins-GC, Steins-SC.
  std::vector<SchemeSpec> schemes = union_schemes({gc(), sc()});
  std::erase_if(schemes, [](const SchemeSpec& s) { return s.scheme == Scheme::kWriteBack; });
  std::vector<std::string> columns;
  for (const auto& s : schemes) columns.push_back(s.label);
  std::vector<double> seconds(sizes.size() * schemes.size());
  ThreadPool::run_indexed(jobs, seconds.size(), [&](std::size_t i) {
    const SchemeSpec& spec = schemes[i % schemes.size()];
    SystemConfig cfg = default_config();
    cfg.counter_mode = spec.mode;
    cfg.secure.metadata_cache.size_bytes = sizes[i / schemes.size()];
    auto mem = make_scheme(spec.scheme, cfg);
    const std::uint64_t leaves = 2 * (cfg.secure.metadata_cache.size_bytes / kBlockSize);
    Cycle now = 0;
    Block data{};
    for (std::uint64_t leaf = 0; leaf < leaves; ++leaf) {
      data[0] = static_cast<std::uint8_t>(leaf);
      now = mem->write_block(leaf * mem->geometry().leaf_coverage() * kBlockSize, data, now);
    }
    mem->crash();
    const RecoveryResult r = mem->recover();
    if (!r.ok()) throw std::runtime_error("unexpected recovery failure: " + r.attack_detail);
    seconds[i] = r.seconds;
  });

  ResultTable table("Fig. 17: Recovery time (seconds)", columns);
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    const auto first = seconds.begin() + static_cast<std::ptrdiff_t>(row * schemes.size());
    table.add_row(std::to_string(sizes[row] / 1024) + "KB", {first, first + schemes.size()});
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  std::string json;
  const ResultTable config_table = table1(&json);

  const auto schemes = union_schemes({gc(), sc()});
  std::printf("Figs. 9-16: %zu workloads x %zu schemes, %llu accesses per cell + %llu warmup, "
              "%u job(s)\n\n", workload_names().size(), schemes.size(),
              static_cast<unsigned long long>(opt.accesses),
              static_cast<unsigned long long>(opt.warmup), opt.jobs);
  const auto results = ExperimentRunner(default_config())
                           .run_matrix(workload_names(), schemes, opt.accesses, opt.warmup,
                                       opt.verbose, opt.jobs);

  json += ",\n \"figures\": {";
  for (const Figure& fig : kFigures) {
    const auto set = fig.schemes();
    const std::string& baseline = set.front().label;
    const ResultTable table =
        ExperimentRunner::make_table(fig.title, results, set, fig.metric, baseline);
    table.print();
    json += "\n  \"" + std::string(fig.id) + "\": {\"table\": " + table.to_json();
    if (fig.p99 != nullptr) {
      const ResultTable tail = ExperimentRunner::make_table(
          std::string(fig.title) + " — p99", results, set, fig.p99, baseline);
      tail.print();
      json += ", \"p99_table\": " + tail.to_json();
    }
    json += "},";
  }

  std::printf("Fig. 17: Recovery time vs. metadata cache size\n");
  std::printf("(every cache line dirty at crash, per the paper's assumption)\n\n");
  const ResultTable recovery = fig17(opt.jobs);
  recovery.print(4);
  json += "\n  \"fig17\": {\"table\": " + recovery.to_json() + "}}";

  if (!opt.json_path.empty()) {
    if (!bench::write_table_json(opt.json_path, config_table, opt, json)) return 1;
    std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
