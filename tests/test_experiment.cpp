// Experiment harness: scheme sets, matrix runs, normalization tables, and
// sequential/parallel equivalence of the matrix runner.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/experiment.hpp"

namespace steins {
namespace {

// Field-by-field equality of everything a figure metric can read, so the
// parallel runner is held to bit-identical output, not approximate output.
void expect_stats_identical(const RunStats& a, const RunStats& b, const std::string& where) {
  EXPECT_EQ(a.cycles, b.cycles) << where;
  EXPECT_EQ(a.instructions, b.instructions) << where;
  EXPECT_EQ(a.accesses, b.accesses) << where;
  EXPECT_EQ(a.energy_nj, b.energy_nj) << where;
  EXPECT_EQ(a.read_latency_cycles, b.read_latency_cycles) << where;
  EXPECT_EQ(a.write_latency_cycles, b.write_latency_cycles) << where;
  EXPECT_EQ(a.mcache_hit_rate, b.mcache_hit_rate) << where;
  EXPECT_EQ(a.mem.read_latency.count, b.mem.read_latency.count) << where;
  EXPECT_EQ(a.mem.read_latency.sum, b.mem.read_latency.sum) << where;
  EXPECT_EQ(a.mem.read_latency.max, b.mem.read_latency.max) << where;
  EXPECT_EQ(a.mem.write_latency.count, b.mem.write_latency.count) << where;
  EXPECT_EQ(a.mem.write_latency.sum, b.mem.write_latency.sum) << where;
  EXPECT_EQ(a.mem.write_latency.max, b.mem.write_latency.max) << where;
  EXPECT_EQ(a.mem.data_reads, b.mem.data_reads) << where;
  EXPECT_EQ(a.mem.data_writes, b.mem.data_writes) << where;
  EXPECT_EQ(a.mem.meta_reads, b.mem.meta_reads) << where;
  EXPECT_EQ(a.mem.meta_writes, b.mem.meta_writes) << where;
  EXPECT_EQ(a.mem.aux_reads, b.mem.aux_reads) << where;
  EXPECT_EQ(a.mem.aux_writes, b.mem.aux_writes) << where;
  EXPECT_EQ(a.mem.aux_write_bytes, b.mem.aux_write_bytes) << where;
  EXPECT_EQ(a.mem.hash_ops, b.mem.hash_ops) << where;
  EXPECT_EQ(a.mem.aes_ops, b.mem.aes_ops) << where;
  EXPECT_EQ(a.mem.mcache_accesses, b.mem.mcache_accesses) << where;
  EXPECT_EQ(a.mem.reencryptions, b.mem.reencryptions) << where;
}

TEST(ExperimentRunner, SchemeSetsMatchPaper) {
  const auto gc = gc_comparison_schemes();
  ASSERT_EQ(gc.size(), 4u);
  EXPECT_EQ(gc[0].label, "WB-GC");
  EXPECT_EQ(gc[1].label, "ASIT");
  EXPECT_EQ(gc[2].label, "STAR");
  EXPECT_EQ(gc[3].label, "Steins-GC");

  const auto sc = sc_comparison_schemes();
  ASSERT_EQ(sc.size(), 3u);
  EXPECT_EQ(sc[0].label, "WB-SC");
  EXPECT_EQ(sc[1].label, "Steins-SC");
  EXPECT_EQ(sc[2].label, "Steins-GC");
}

TEST(ExperimentRunner, MatrixRunsEveryCell) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;
  ExperimentRunner runner(cfg);
  const std::vector<std::string> wls = {"gcc", "phash"};
  const auto schemes = sc_comparison_schemes();
  const auto results = runner.run_matrix(wls, schemes, 3000);
  ASSERT_EQ(results.size(), wls.size() * schemes.size());
  for (const auto& r : results) {
    EXPECT_GT(r.stats.cycles, 0u) << r.workload << "/" << r.scheme_label;
  }
}

TEST(ExperimentRunner, ParallelMatrixMatchesSequentialBitExactly) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;
  ExperimentRunner runner(cfg);
  const std::vector<std::string> wls = {"gcc", "phash", "mcf"};
  const auto schemes = gc_comparison_schemes();

  const auto seq = runner.run_matrix(wls, schemes, 2000, 200, false, /*jobs=*/1);
  const auto par = runner.run_matrix(wls, schemes, 2000, 200, false, /*jobs=*/4);

  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    // Same cell in the same slot: first-seen order survives parallelism.
    EXPECT_EQ(seq[i].workload, par[i].workload) << i;
    EXPECT_EQ(seq[i].scheme_label, par[i].scheme_label) << i;
    expect_stats_identical(seq[i].stats, par[i].stats,
                           seq[i].workload + "/" + seq[i].scheme_label);
  }
}

TEST(ExperimentRunner, ParallelMatrixPropagatesCellExceptions) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;
  ExperimentRunner runner(cfg);
  const std::vector<std::string> wls = {"gcc", "no-such-workload"};
  const auto schemes = sc_comparison_schemes();
  EXPECT_THROW(runner.run_matrix(wls, schemes, 500, 0, false, /*jobs=*/4),
               std::invalid_argument);
  EXPECT_THROW(runner.run_matrix(wls, schemes, 500, 0, false, /*jobs=*/1),
               std::invalid_argument);
}

TEST(ExperimentRunner, TableNormalizesToBaseline) {
  std::vector<SchemeSpec> schemes = {
      {Scheme::kWriteBack, CounterMode::kGeneral, "base"},
      {Scheme::kSteins, CounterMode::kGeneral, "other"},
  };
  std::vector<MatrixResult> results(2);
  results[0].workload = "w";
  results[0].scheme_label = "base";
  results[0].stats.cycles = 100;
  results[1].workload = "w";
  results[1].scheme_label = "other";
  results[1].stats.cycles = 150;

  const ResultTable t = ExperimentRunner::make_table(
      "t", results, schemes, [](const RunStats& s) { return static_cast<double>(s.cycles); },
      "base");
  ASSERT_EQ(t.rows().size(), 2u);  // workload row + gmean
  EXPECT_DOUBLE_EQ(t.rows()[0].second[0], 1.0);
  EXPECT_DOUBLE_EQ(t.rows()[0].second[1], 1.5);
}

TEST(ExperimentRunner, AbsoluteTableWithEmptyBaseline) {
  std::vector<SchemeSpec> schemes = {{Scheme::kWriteBack, CounterMode::kGeneral, "only"}};
  std::vector<MatrixResult> results(1);
  results[0].workload = "w";
  results[0].scheme_label = "only";
  results[0].stats.cycles = 123;
  const ResultTable t = ExperimentRunner::make_table(
      "t", results, schemes, [](const RunStats& s) { return static_cast<double>(s.cycles); }, "");
  EXPECT_DOUBLE_EQ(t.rows()[0].second[0], 123.0);
}

double cycles(const RunStats& s) { return static_cast<double>(s.cycles); }

MatrixResult cell(const std::string& workload, const std::string& label, Cycle cycles) {
  MatrixResult r;
  r.workload = workload;
  r.scheme_label = label;
  r.stats.cycles = cycles;
  return r;
}

// make_table's std::invalid_argument message, or "" if it did not throw.
std::string table_error(const std::vector<MatrixResult>& results,
                        const std::vector<SchemeSpec>& schemes, const std::string& baseline) {
  try {
    ExperimentRunner::make_table("t", results, schemes, cycles, baseline);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ExperimentRunner, TableRejectsMissingBaseline) {
  const std::vector<SchemeSpec> schemes = {
      {Scheme::kWriteBack, CounterMode::kGeneral, "base"},
      {Scheme::kSteins, CounterMode::kGeneral, "other"},
  };
  const std::string err = table_error({cell("w", "other", 150)}, schemes, "base");
  EXPECT_NE(err.find("base"), std::string::npos) << err;
}

TEST(ExperimentRunner, TableRejectsMissingColumn) {
  const std::vector<SchemeSpec> schemes = {
      {Scheme::kWriteBack, CounterMode::kGeneral, "base"},
      {Scheme::kSteins, CounterMode::kGeneral, "other"},
  };
  const std::string err = table_error({cell("w", "base", 100)}, schemes, "base");
  EXPECT_NE(err.find("other"), std::string::npos) << err;
}

TEST(ExperimentRunner, TableRejectsDuplicateCell) {
  const std::vector<SchemeSpec> schemes = {
      {Scheme::kWriteBack, CounterMode::kGeneral, "base"},
      {Scheme::kSteins, CounterMode::kGeneral, "other"},
  };
  const std::string err = table_error(
      {cell("w", "base", 100), cell("w", "other", 150), cell("w", "other", 170)}, schemes,
      "base");
  EXPECT_NE(err.find("other"), std::string::npos) << err;
}

TEST(ExperimentRunner, UnionSchemesDeduplicatesByLabel) {
  const auto all = union_schemes({gc_comparison_schemes(), sc_comparison_schemes()});
  std::vector<std::string> labels;
  for (const auto& s : all) labels.push_back(s.label);
  EXPECT_EQ(labels, (std::vector<std::string>{"WB-GC", "ASIT", "STAR", "Steins-GC", "WB-SC",
                                              "Steins-SC"}));
  EXPECT_EQ(all[3].scheme, Scheme::kSteins);
  EXPECT_EQ(all[3].mode, CounterMode::kGeneral);
}

TEST(ExperimentRunner, UnionSchemesRejectsConflictingLabel) {
  const std::vector<SchemeSpec> clash = {{Scheme::kSteins, CounterMode::kSplit, "Steins-GC"}};
  EXPECT_THROW(union_schemes({gc_comparison_schemes(), clash}), std::invalid_argument);
}

// A figure table read out of a matrix over a superset of its schemes equals
// the table of a run over just its own set: cells are independent of which
// other specs share the run. One run of the union set relies on this to
// feed every figure.
TEST(ExperimentRunner, TableFromSupersetRunEqualsSubsetRun) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 256ULL << 20;
  ExperimentRunner runner(cfg);
  const std::vector<std::string> wls = {"gcc", "phash"};
  const auto all = union_schemes({gc_comparison_schemes(), sc_comparison_schemes()});
  const auto superset = runner.run_matrix(wls, all, 2000, 200, false, /*jobs=*/2);
  for (const auto& set : {gc_comparison_schemes(), sc_comparison_schemes()}) {
    const auto own = runner.run_matrix(wls, set, 2000, 200);
    const auto from_union =
        ExperimentRunner::make_table("t", superset, set, cycles, set.front().label);
    const auto from_own = ExperimentRunner::make_table("t", own, set, cycles, set.front().label);
    EXPECT_EQ(from_union.columns(), from_own.columns());
    EXPECT_EQ(from_union.rows(), from_own.rows()) << set.front().label;
  }
}

}  // namespace
}  // namespace steins
