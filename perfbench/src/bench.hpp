// Shared pieces of the benchmark's workloads: the per-run accounting every
// workload fills in, the metric sink, and the workload interface main.cpp
// drives.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "tracer.hpp"

namespace perfbench {

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The fastest time of each position in a sequence of timed steps that
/// every pass repeats in the same order.
struct BestTimes {
  std::vector<double> best_s;
  std::size_t next = 0;  // position within the current pass

  void add(double seconds) {
    if (next == best_s.size()) {
      best_s.push_back(seconds);
    } else {
      best_s[next] = std::min(best_s[next], seconds);
    }
    ++next;
  }
  void end_pass() { next = 0; }
  double sum() const {
    double s = 0.0;
    for (const double b : best_s) s += b;
    return s;
  }
};

/// Host-side accounting of one kind of pass (untraced or traced).
///
/// Every pass repeats the same set-up steps and timed units (chunks of
/// accesses, serving calls or KV ops) in the same order, and the host
/// metrics are computed from each step's fastest time over the passes. On a
/// shared host the same step runs in speed regimes about a third apart that
/// switch every few seconds, and contention never makes a step faster, so
/// best-of-passes tracks the program's own speed where a median moves with
/// the share of the run that was contended.
struct HostStats {
  std::uint64_t ops = 0;     // trace accesses or KV operations served
  std::uint64_t passes = 0;
  double timed_s = 0.0;      // host time of the timed units
  double setup_total_s = 0.0;
  BestTimes units;           // per timed unit
  BestTimes setups;          // per set-up step

  void add_unit(double seconds) {
    timed_s += seconds;
    units.add(seconds);
  }
  void add_setup(double seconds) {
    setup_total_s += seconds;
    setups.add(seconds);
  }
  void end_pass() {
    ++passes;
    units.end_pass();
    setups.end_pass();
  }
  /// One pass's ops over the sum of the best unit times.
  double ops_per_s() const {
    const double best_s = units.sum();
    return passes > 0 && best_s > 0.0 ? static_cast<double>(ops) / static_cast<double>(passes) / best_s
                                      : 0.0;
  }
  double unit_us(double pct) const { return percentile(units.best_s, pct) * 1e6; }
  /// One pass's set-up, every step at its best.
  double setup_s() const { return setups.sum(); }
};

/// Everything a workload shares with the pass loop in main.cpp.
struct RunContext {
  std::uint64_t seed = 1;
  double scale = 1.0;  // multiplies every input size (tests run tiny sizes)
  steins::SystemConfig cfg = steins::default_config();
  Tracer tracer;
  HostStats host[2];   // [0] untraced passes, [1] traced passes
  double pad_ns = 0.0;  // host ns per CmeEngine pad (encrypt), trace mode only
  double mac_ns = 0.0;  // host ns per data MAC, trace mode only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages

  std::uint64_t scaled(std::uint64_t n) const;
  void fail(const std::string& what);
  HostStats& host_for(bool traced) { return host[traced ? 1 : 0]; }
};

/// A workload runs identical passes until the time budget is spent. Every
/// pass reproduces the first pass's simulated results exactly (a traced
/// pass included); host metrics aggregate over all passes.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void pass(RunContext& ctx, bool traced) = 0;
  /// Simulated end-to-end metrics, from the first pass.
  virtual void sim_metrics(const RunContext& ctx, Metrics& out) const = 0;
  /// Per-layer metrics of the layers this workload drives, from the traced
  /// passes. Layers it never calls are left out; run.py prints them as 0.
  virtual void layer_metrics(const RunContext& ctx, Metrics& out) const = 0;
};

/// Thrown after RunContext::fail to abandon the current pass.
struct PassAborted {};

/// nullptr for a name the factory does not know.
std::unique_ptr<Workload> make_trace_workload(const std::string& name, const RunContext& ctx);
std::unique_ptr<Workload> make_kv_workload(const std::string& name, const RunContext& ctx);

/// Compare a pass's simulated record against the first pass's; a mismatch
/// is a failure (non-determinism, or a traced replay that diverged).
void check_record(RunContext& ctx, std::vector<double>& reference, std::vector<double> record,
                  bool traced, const char* what);

double geomean(const std::vector<double>& v);

}  // namespace perfbench
