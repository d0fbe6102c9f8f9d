// Shared plumbing for the benches: sizing, parallelism and the crypto
// backend from argv, one ThreadPool fan-out for a bench's independent
// cells, and optional machine-readable JSON output for recording bench
// trajectories across commits.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "../tools/cli_common.hpp"
#include "common/config.hpp"
#include "common/thread_pool.hpp"
#include "crypto/backend.hpp"
#include "sim/experiment.hpp"
#include "trace/workloads.hpp"

namespace steins::bench {

struct BenchOptions {
  std::uint64_t accesses = 200'000;  // measured accesses per (workload, scheme)
  std::uint64_t warmup = 20'000;     // warmup accesses (stats reset after)
  unsigned jobs = 1;                 // worker threads for the matrix (1 = sequential)
  std::string json_path;             // if non-empty, dump the table as JSON here
  bool verbose = false;
};

/// Parse `[accesses [warmup]] [--jobs N] [--json FILE]
/// [--crypto-backend ref|ttable|hw|auto] [--verbose]` with cli::ArgParser.
/// Accesses default to `default_accesses`; jobs default to STEINS_JOBS or
/// every hardware thread (any value gives the same output, 1 runs
/// sequentially). The crypto backend also reads STEINS_CRYPTO_BACKEND, and
/// the flag wins; backends are bit-identical, so it only moves host
/// wall-clock and is recorded in the JSON provenance. `--help`/`-h` prints
/// the usage line to stdout and exits 0. An unknown flag, a flag missing
/// its value, a malformed number, `--jobs 0` or an extra positional prints
/// it to stderr and exits 2.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::uint64_t default_accesses = 200'000) {
  BenchOptions opt;
  opt.accesses = default_accesses;
  opt.jobs = ThreadPool::default_jobs();  // reads STEINS_JOBS
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [accesses [warmup]] [--jobs N] [--json FILE] "
                 "[--crypto-backend ref|ttable|hw|auto] [--verbose]\n",
                 argv[0]);
  };
  cli::ArgParser p(argc, argv);
  int positional = 0;
  bool backend_ok = true;
  while (backend_ok && p.next()) {
    if (p.is("--help", "-h")) {
      usage(stdout);
      std::exit(0);
    } else if (p.is("--jobs")) {
      opt.jobs = p.jobs();
    } else if (p.is("--json")) {
      opt.json_path = p.str();
    } else if (p.is("--crypto-backend")) {
      const std::string name = p.str();
      backend_ok = p.failed() || cli::apply_crypto_backend(name);
    } else if (p.is("--verbose")) {
      opt.verbose = true;
    } else if (std::strncmp(p.arg(), "--", 2) == 0) {
      p.unknown();
    } else if (positional == 0) {
      opt.accesses = p.operand_u64("accesses");
      ++positional;
    } else if (positional == 1) {
      opt.warmup = p.operand_u64("warmup");
      ++positional;
    } else {
      p.invalid(std::string("unexpected argument: ") + p.arg());
    }
  }
  if (p.failed() || !backend_ok) {
    usage(stderr);
    std::exit(2);
  }
  return opt;
}

/// Independent simulations queued up front and run through one ThreadPool
/// fan-out; cell i's result is cells[i] after run(). Cells share no state,
/// so any jobs count gives the same results.
template <class Result = std::vector<double>>
class Cells {
 public:
  std::size_t add(std::function<Result()> cell) {
    cells_.push_back(std::move(cell));
    return cells_.size() - 1;
  }
  void run(unsigned jobs) {
    results_.resize(cells_.size());
    ThreadPool::run_indexed(jobs, cells_.size(), [&](std::size_t i) { results_[i] = cells_[i](); });
  }
  const Result& operator[](std::size_t i) const { return results_[i]; }

 private:
  std::vector<std::function<Result()>> cells_;
  std::vector<Result> results_;
};

/// Write the run's sizing (for provenance) and `members` (comma-separated
/// JSON object members) as one JSON object to `path`. Returns false — with
/// the failing path and OS error on stderr — if the file cannot be opened
/// or the write does not complete (e.g. disk full); a recorded bench
/// trajectory must never silently drop a data point.
inline bool write_json(const std::string& path, const BenchOptions& opt,
                       const std::string& members) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const int written = std::fprintf(
      f,
      "{\"accesses\": %llu, \"warmup\": %llu, \"jobs\": %u, \"crypto_backend\": \"%s\",\n"
      " %s}\n",
      static_cast<unsigned long long>(opt.accesses),
      static_cast<unsigned long long>(opt.warmup), opt.jobs,
      crypto::backend_name(crypto::active_backend()), members.c_str());
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || written < 0 || !flushed) {
    std::fprintf(stderr, "error writing JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

/// write_json with `table` as the "table" member, followed verbatim by
/// `extra_members` (e.g. `, "figures": {...}`).
inline bool write_table_json(const std::string& path, const ResultTable& table,
                             const BenchOptions& opt,
                             const std::string& extra_members = {}) {
  return write_json(path, opt, "\"table\": " + table.to_json() + extra_members);
}

}  // namespace steins::bench
