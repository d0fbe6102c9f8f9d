// Repository benchmark program.
//
//   perfbench --workload <spec-read|persist-crash|kv-serve|lsm-a> --seed N
//             --seconds S --trace 0|1 [--scale F] [--spans FILE]
//
// Runs identical passes of the workload until S seconds are spent (at
// least one) and prints one JSON line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Trace mode alternates
// an untraced and a traced pass, so it also reports the tracing overhead.
// Exit code 0 means the run completed; `correct` says whether every output
// check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.hpp"
#include "secure/cme.hpp"

namespace perfbench {

std::uint64_t RunContext::scaled(std::uint64_t n) const {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}

void RunContext::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void check_record(RunContext& ctx, std::vector<double>& reference, std::vector<double> record,
                  bool traced, const char* what) {
  if (reference.empty()) {
    reference = std::move(record);
  } else if (record != reference) {
    ctx.fail(std::string(what) + (traced ? ": traced replay differs from the untraced run"
                                         : ": a repeated pass differs from the first"));
  }
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/// Host ns per call of `fn`: the median of several timed batches.
template <class F>
double ns_per_call(F&& fn) {
  constexpr int kBatch = 20000;
  std::vector<double> batches;
  for (int rep = 0; rep < 7; ++rep) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kBatch; ++i) fn(static_cast<std::uint64_t>(i));
    batches.push_back(static_cast<double>(now_ns() - t0) / kBatch);
  }
  return percentile(batches, 50.0);
}

/// Time the public crypto kernels the secure path calls per access.
void time_crypto(RunContext& ctx) {
  const steins::CmeEngine cme(ctx.cfg.crypto, ctx.seed);
  steins::Block block{};
  volatile std::uint64_t sink = 0;
  ctx.pad_ns = ns_per_call([&](std::uint64_t i) {
    block = cme.encrypt(block, i * steins::kBlockSize, i);
  });
  ctx.mac_ns = ns_per_call([&](std::uint64_t i) {
    sink = sink + cme.data_mac(block, i * steins::kBlockSize, i);
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_result(const RunContext& ctx, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ctx.failed == 0 ? "true" : "false", static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void run_pass(Workload& w, RunContext& ctx, bool traced) {
  HostStats& h = ctx.host_for(traced);
  const std::uint64_t ops0 = h.ops;
  const double timed0 = h.timed_s;
  const double setup0 = h.setup_total_s;
  w.pass(ctx, traced);
  h.end_pass();
  std::fprintf(stderr, "perfbench: %s pass %llu: %.0f ops/s, set-up %.4f s\n",
               traced ? "traced" : "untraced", static_cast<unsigned long long>(h.passes),
               static_cast<double>(h.ops - ops0) / (h.timed_s - timed0), h.setup_total_s - setup0);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--scale F] [--spans FILE]\n",
               msg);
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  RunContext ctx;
  std::string workload;
  std::string spans_path;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      ctx.seed = std::strtoull(val, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (arg == "--scale") {
      ctx.scale = std::strtod(val, &end);
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == val)) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (seconds < 0.0 || (trace != 0 && trace != 1) || !(ctx.scale > 0.0)) {
    return usage("--seconds, --trace and a positive --scale are required");
  }
  std::unique_ptr<Workload> w = make_trace_workload(workload, ctx);
  if (!w) w = make_kv_workload(workload, ctx);
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());

  const bool traced_run = trace == 1;
  if (traced_run) time_crypto(ctx);
  if (workload == "spec-read" || workload == "persist-crash") {
    ctx.tracer.set_sample_every(997);
  } else if (workload == "lsm-a") {
    ctx.tracer.set_sample_every(97);
  }

  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    try {
      run_pass(*w, ctx, false);
      if (traced_run) run_pass(*w, ctx, true);
    } catch (const PassAborted&) {
      break;
    } catch (const std::exception& e) {
      ctx.fail(e.what());
      break;
    }
  } while (now_ns() < deadline && ctx.failed == 0);

  for (const std::string& f : ctx.failures) std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
  if (ctx.attempted == 0) ctx.attempted = 1;  // a pass aborted before counting any op

  Metrics got;
  if (!traced_run) {
    const HostStats& h = ctx.host[0];
    got.push_back({"setup_s", h.setup_s(), "s"});
    got.push_back({"ops_per_s", h.ops_per_s(), "1/s"});
    got.push_back({"host_us_p50", h.unit_us(50.0), "us"});
    got.push_back({"host_us_p99", h.unit_us(99.0), "us"});
    got.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    if (ctx.failed == 0) w->sim_metrics(ctx, got);
    print_result(ctx, got);
  } else {
    got.push_back({"crypto.pad_ns", ctx.pad_ns, "ns"});
    got.push_back({"crypto.mac_ns", ctx.mac_ns, "ns"});
    const double traced_ops = ctx.host[1].ops_per_s();
    got.push_back({"bench.trace_overhead", traced_ops > 0.0 ? ctx.host[0].ops_per_s() / traced_ops : 0.0, "x"});
    got.push_back({"bench.spans_kept", static_cast<double>(ctx.tracer.spans_kept()), "count"});
    if (ctx.failed == 0) w->layer_metrics(ctx, got);
    if (!spans_path.empty() && !ctx.tracer.write_spans(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n", spans_path.c_str());
    }
    print_result(ctx, got);
  }
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
