// Experiment harness: runs (scheme x workload) matrices and formats them
// the way the paper's figures report them (per-workload bars normalized to
// a baseline, plus a mean row). bench/paper_figures derives every matrix
// figure from one run of this.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "secure/secure_memory.hpp"
#include "sim/system.hpp"

namespace steins {

/// One scheme variant under test.
struct SchemeSpec {
  Scheme scheme;
  CounterMode mode;
  std::string label;
};

/// The GC-mode comparison set of Figs. 9/10/11/13/15:
/// WB-GC (baseline), ASIT, STAR, Steins-GC.
std::vector<SchemeSpec> gc_comparison_schemes();

/// The SC-mode comparison set of Figs. 12/14/16:
/// WB-SC (baseline), Steins-SC, Steins-GC.
std::vector<SchemeSpec> sc_comparison_schemes();

/// The union of scheme sets, one spec per label in first-seen order, so one
/// matrix run can feed the tables of every set. Throws std::invalid_argument
/// if a label names two different (scheme, mode) pairs.
std::vector<SchemeSpec> union_schemes(const std::vector<std::vector<SchemeSpec>>& sets);

struct MatrixResult {
  std::string workload;
  std::string scheme_label;
  RunStats stats;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(SystemConfig base_cfg) : base_cfg_(std::move(base_cfg)) {}

  /// Run every (workload, scheme) pair. `accesses` is the measured trace
  /// length; `warmup` accesses run first without counting statistics.
  ///
  /// `jobs` > 1 fans the independent cells out across a thread pool; the
  /// result order (and every RunStats in it) is bit-identical to the
  /// sequential `jobs = 1` run regardless of completion order. The first
  /// exception thrown by any cell is rethrown after all cells finish.
  std::vector<MatrixResult> run_matrix(const std::vector<std::string>& workloads,
                                       const std::vector<SchemeSpec>& schemes,
                                       std::uint64_t accesses, std::uint64_t warmup = 0,
                                       bool verbose = false, unsigned jobs = 1) const;

  /// Build a figure table: metric(stats) per cell, normalized per workload
  /// to the scheme labeled `baseline` (empty = absolute values), with a
  /// geometric-mean row appended; cells of other schemes are ignored.
  /// Throws std::invalid_argument naming the label if a workload lacks a
  /// column's or the baseline's cell, or has two cells with one label.
  static ResultTable make_table(const std::string& title,
                                const std::vector<MatrixResult>& results,
                                const std::vector<SchemeSpec>& schemes,
                                const std::function<double(const RunStats&)>& metric,
                                const std::string& baseline);

  const SystemConfig& base_config() const { return base_cfg_; }

 private:
  SystemConfig base_cfg_;
};

}  // namespace steins
