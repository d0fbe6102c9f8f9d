#include "sim/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "trace/workloads.hpp"

namespace steins {

std::vector<SchemeSpec> gc_comparison_schemes() {
  return {
      {Scheme::kWriteBack, CounterMode::kGeneral, "WB-GC"},
      {Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
      {Scheme::kStar, CounterMode::kGeneral, "STAR"},
      {Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"},
  };
}

std::vector<SchemeSpec> sc_comparison_schemes() {
  return {
      {Scheme::kWriteBack, CounterMode::kSplit, "WB-SC"},
      {Scheme::kSteins, CounterMode::kSplit, "Steins-SC"},
      {Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"},
  };
}

std::vector<SchemeSpec> union_schemes(const std::vector<std::vector<SchemeSpec>>& sets) {
  std::vector<SchemeSpec> out;
  for (const auto& set : sets) {
    for (const auto& spec : set) {
      const auto same = std::ranges::find(out, spec.label, &SchemeSpec::label);
      if (same == out.end()) {
        out.push_back(spec);
      } else if (same->scheme != spec.scheme || same->mode != spec.mode) {
        throw std::invalid_argument("scheme label " + spec.label +
                                    " names two different (scheme, mode) pairs");
      }
    }
  }
  return out;
}

std::vector<MatrixResult> ExperimentRunner::run_matrix(const std::vector<std::string>& workloads,
                                                       const std::vector<SchemeSpec>& schemes,
                                                       std::uint64_t accesses,
                                                       std::uint64_t warmup,
                                                       bool verbose, unsigned jobs) const {
  const std::size_t n = workloads.size() * schemes.size();
  std::vector<MatrixResult> results(n);

  // Each cell is fully independent: its own System, its own trace generator
  // (seeded identically however the matrix is scheduled), writing a
  // pre-assigned slot. That makes the output deterministic in first-seen
  // (workload-major) order no matter which thread finishes first.
  auto run_cell = [&](std::size_t idx) {
    const auto& wl = workloads[idx / schemes.size()];
    const auto& spec = schemes[idx % schemes.size()];
    SystemConfig cfg = base_cfg_;
    cfg.counter_mode = spec.mode;
    System sys(cfg, spec.scheme);
    auto trace = make_workload(wl, accesses + warmup);
    const RunStats stats = sys.run(*trace, warmup);
    if (verbose) {
      std::fprintf(stderr, "  %-12s %-10s cycles=%llu rd=%.0fcy wr=%.0fcy traffic=%llu\n",
                   wl.c_str(), spec.label.c_str(),
                   static_cast<unsigned long long>(stats.cycles), stats.read_latency_cycles,
                   stats.write_latency_cycles,
                   static_cast<unsigned long long>(stats.mem.nvm_writes()));
    }
    results[idx] = MatrixResult{wl, spec.label, stats};
  };

  if (jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_cell(i);
  } else {
    ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(jobs, n)));
    pool.for_each_index(n, run_cell);
  }
  return results;
}

ResultTable ExperimentRunner::make_table(const std::string& title,
                                         const std::vector<MatrixResult>& results,
                                         const std::vector<SchemeSpec>& schemes,
                                         const std::function<double(const RunStats&)>& metric,
                                         const std::string& baseline) {
  std::vector<std::string> columns;
  for (const auto& s : schemes) columns.push_back(s.label);
  ResultTable table(title, columns);

  // Group by workload, preserving first-seen order.
  std::vector<std::string> order;
  std::map<std::string, std::map<std::string, double>> cells;
  for (const auto& r : results) {
    if (!cells.contains(r.workload)) order.push_back(r.workload);
    if (!cells[r.workload].emplace(r.scheme_label, metric(r.stats)).second) {
      throw std::invalid_argument("duplicate result for scheme " + r.scheme_label +
                                  " on workload " + r.workload);
    }
  }

  for (const auto& wl : order) {
    const auto& row = cells.at(wl);
    const auto cell = [&](const std::string& label) {
      const auto it = row.find(label);
      if (it != row.end()) return it->second;
      throw std::invalid_argument("no result for scheme " + label + " on workload " + wl);
    };
    double base = baseline.empty() ? 1.0 : cell(baseline);
    if (base == 0.0) base = 1.0;
    std::vector<double> values;
    values.reserve(columns.size());
    for (const auto& col : columns) values.push_back(cell(col) / base);
    table.add_row(wl, values);
  }
  table.add_geomean_row("gmean");
  return table;
}

}  // namespace steins
