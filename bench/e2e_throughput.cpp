// e2e_throughput: end-to-end simulator throughput trajectory (host ops/sec).
//
// Runs the paper's GC and SC comparison matrices (the cells
// `paper_figures` derives Figs. 9-16 from) and records how many simulated
// accesses per host second each scheme sustains. The committed BENCH_e2e.json gives every
// future PR a measured baseline for the simulation core, the way
// BENCH_micro.json already does for the crypto kernels.
//
//   e2e_throughput --json BENCH_e2e.json
//   e2e_throughput 200000 20000 --jobs 1 --deep-run
//   e2e_throughput --baseline-ops 123456 --baseline-label "seed @be4fd2c"
//
// Simulated results are deterministic; only the ops/sec figures depend on
// the host. `--baseline-ops` embeds a previously measured total (e.g. the
// pre-refactor seed, measured back-to-back on the same host) so the JSON
// records an honest speedup ratio next to the absolute numbers.
// `--deep-run` appends a 10M-access single-cell run as a scale check.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

using namespace steins;
using Clock = std::chrono::steady_clock;

namespace {

struct SchemePoint {
  std::string label;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

struct ModePoint {
  std::string mode;
  std::vector<SchemePoint> schemes;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Time one matrix, one scheme at a time, so the JSON records a per-scheme
/// trajectory (the schemes differ widely in metadata traffic).
ModePoint run_mode(const ExperimentRunner& runner, const std::string& mode,
                   const std::vector<SchemeSpec>& schemes, const bench::BenchOptions& opt) {
  ModePoint mp;
  mp.mode = mode;
  const auto& workloads = workload_names();
  const double cell_ops = static_cast<double>(opt.accesses + opt.warmup);
  double total_ops = 0.0;
  for (const auto& spec : schemes) {
    const auto t0 = Clock::now();
    (void)runner.run_matrix(workloads, {spec}, opt.accesses, opt.warmup, false, opt.jobs);
    SchemePoint sp;
    sp.label = spec.label;
    sp.seconds = seconds_since(t0);
    const double ops = cell_ops * static_cast<double>(workloads.size());
    sp.ops_per_sec = ops / sp.seconds;
    std::printf("  %-10s %-10s %8.2f s   %12.0f ops/s\n", mode.c_str(), sp.label.c_str(),
                sp.seconds, sp.ops_per_sec);
    mp.seconds += sp.seconds;
    total_ops += ops;
    mp.schemes.push_back(std::move(sp));
  }
  mp.ops_per_sec = total_ops / mp.seconds;
  return mp;
}

void append_mode_json(std::string* out, const ModePoint& mp) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  \"%s\": {\"seconds\": %.2f, \"ops_per_sec\": %.0f,\n",
                mp.mode.c_str(), mp.seconds, mp.ops_per_sec);
  *out += buf;
  *out += "   \"schemes\": {";
  for (std::size_t i = 0; i < mp.schemes.size(); ++i) {
    const auto& sp = mp.schemes[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"seconds\": %.2f, \"ops_per_sec\": %.0f}",
                  i == 0 ? "" : ", ", sp.label.c_str(), sp.seconds, sp.ops_per_sec);
    *out += buf;
  }
  *out += "}}";
}

}  // namespace

int main(int argc, char** argv) {
  double baseline_ops = 0.0;
  std::string baseline_label;
  bool deep_run = false;
  // Strip the flags bench_common does not know before the shared parse.
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline-ops") == 0 && i + 1 < argc) {
      baseline_ops = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--baseline-label") == 0 && i + 1 < argc) {
      baseline_label = argv[++i];
    } else if (std::strcmp(argv[i], "--deep-run") == 0) {
      deep_run = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  const bench::BenchOptions opt =
      bench::parse_options(static_cast<int>(rest.size()), rest.data());

  std::printf("e2e_throughput: full-system matrix, host wall-clock per scheme\n");
  std::printf("(%" PRIu64 " accesses + %" PRIu64 " warmup per cell, %zu workloads, %u job%s)\n\n",
              opt.accesses, opt.warmup, workload_names().size(), opt.jobs,
              opt.jobs == 1 ? "" : "s");

  ExperimentRunner runner(default_config());
  const ModePoint gc = run_mode(runner, "gc", gc_comparison_schemes(), opt);
  const ModePoint sc = run_mode(runner, "sc", sc_comparison_schemes(), opt);

  const double total_seconds = gc.seconds + sc.seconds;
  const double total_ops =
      gc.ops_per_sec * gc.seconds + sc.ops_per_sec * sc.seconds;
  const double total_ops_per_sec = total_ops / total_seconds;
  std::printf("\n  total: %.2f s, %.0f ops/s\n", total_seconds, total_ops_per_sec);
  if (baseline_ops > 0.0) {
    std::printf("  speedup vs baseline%s%s: %.2fx\n", baseline_label.empty() ? "" : " ",
                baseline_label.c_str(), total_ops_per_sec / baseline_ops);
  }

  double deep_seconds = 0.0;
  constexpr std::uint64_t kDeepOps = 10'000'000;
  if (deep_run) {
    // Scale check: one 10M-access cell, the trace size the refactor targets.
    std::printf("\n  deep run: Steins-GC phash, %" PRIu64 " accesses...\n", kDeepOps);
    const auto t0 = Clock::now();
    (void)runner.run_matrix({"phash"},
                            {{Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"}}, kDeepOps,
                            0, false, 1);
    deep_seconds = seconds_since(t0);
    std::printf("  deep run: %.2f s, %.0f ops/s\n", deep_seconds,
                static_cast<double>(kDeepOps) / deep_seconds);
  }

  if (!opt.json_path.empty()) {
    std::string body;
    char buf[512];
    body += "{\n  \"bench\": \"e2e_throughput\",\n  \"schema_version\": 1,\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"accesses\": %" PRIu64 ", \"warmup\": %" PRIu64
                  ", \"jobs\": %u, \"host_threads\": %u, \"crypto_backend\": \"%s\",\n",
                  opt.accesses, opt.warmup, opt.jobs,
                  std::thread::hardware_concurrency(),
                  crypto::backend_name(crypto::active_backend()));
    body += buf;
    append_mode_json(&body, gc);
    body += ",\n";
    append_mode_json(&body, sc);
    body += ",\n";
    std::snprintf(buf, sizeof(buf), "  \"total_seconds\": %.2f, \"total_ops_per_sec\": %.0f",
                  total_seconds, total_ops_per_sec);
    body += buf;
    if (baseline_ops > 0.0) {
      std::snprintf(buf, sizeof(buf),
                    ",\n  \"baseline\": {\"label\": \"%s\", \"total_ops_per_sec\": %.0f},\n"
                    "  \"speedup_vs_baseline\": %.2f",
                    baseline_label.c_str(), baseline_ops, total_ops_per_sec / baseline_ops);
      body += buf;
    }
    if (deep_run) {
      std::snprintf(buf, sizeof(buf),
                    ",\n  \"deep_run\": {\"scheme\": \"Steins-GC\", \"workload\": \"phash\", "
                    "\"accesses\": %" PRIu64 ", \"seconds\": %.2f, \"ops_per_sec\": %.0f}",
                    kDeepOps, deep_seconds, static_cast<double>(kDeepOps) / deep_seconds);
      body += buf;
    }
    body += "\n}\n";
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opt.json_path.c_str());
      return 1;
    }
    const bool ok = std::fputs(body.c_str(), f) >= 0 && std::fflush(f) == 0;
    if (std::fclose(f) != 0 || !ok) {
      std::fprintf(stderr, "error writing %s\n", opt.json_path.c_str());
      return 1;
    }
    std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
  }
  return 0;
}
