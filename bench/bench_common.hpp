// Shared plumbing for the benches: trace sizing and parallelism
// (overridable via environment or argv) and optional machine-readable JSON
// output for recording bench trajectories across commits.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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

/// Parse sizing from positional argv[1]/argv[2] or STEINS_ACCESSES /
/// STEINS_WARMUP (accesses default to `default_accesses` when neither is
/// given), parallelism from `--jobs N` / STEINS_JOBS (default: all
/// hardware threads; 1 reproduces the sequential run exactly), JSON output
/// from `--json FILE` / STEINS_JSON, and the crypto backend from
/// `--crypto-backend ref|ttable|hw|auto` (the STEINS_CRYPTO_BACKEND env var
/// is read by the registry itself; the flag wins). Backends are
/// bit-identical, so this only affects host wall-clock — it is recorded in
/// the JSON provenance so trajectory points stay comparable. Unknown
/// --flags, flags missing their value, and extra positionals exit(2).
inline BenchOptions parse_options(int argc, char** argv,
                                  std::uint64_t default_accesses = 200'000) {
  BenchOptions opt;
  opt.accesses = default_accesses;
  opt.jobs = ThreadPool::default_jobs();  // reads STEINS_JOBS
  if (const char* env = std::getenv("STEINS_ACCESSES")) {
    opt.accesses = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("STEINS_WARMUP")) {
    opt.warmup = std::strtoull(env, nullptr, 10);
  }
  if (const char* env = std::getenv("STEINS_JSON")) opt.json_path = env;
  if (std::getenv("STEINS_VERBOSE") != nullptr) opt.verbose = true;

  // Unknown --flags (and flags missing their value) are hard errors: a
  // typo like `--job 4` must not be silently consumed as a positional
  // access count.
  const auto value_of = [&](int* i) -> const char* {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[*i]);
      std::exit(2);
    }
    return argv[++*i];
  };
  // A non-numeric positional (or numeric flag value) is likewise an error:
  // `kv_throughput 20OO0` must not silently run 20 accesses.
  const auto parse_u64 = [](const char* what, const char* s) -> std::uint64_t {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
      std::fprintf(stderr, "invalid %s: %s (expected an unsigned integer)\n", what, s);
      std::exit(2);
    }
    return v;
  };
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      const std::uint64_t v = parse_u64("--jobs", value_of(&i));
      opt.jobs = v < 1 ? 1u : static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--crypto-backend") == 0) {
      const char* name = value_of(&i);
      const auto b = crypto::parse_backend(name);
      if (!b) {
        std::fprintf(stderr,
                     "unknown crypto backend: %s (expected ref|ttable|hw|auto)\n",
                     name);
        std::exit(2);
      }
      crypto::set_crypto_backend(*b);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_path = value_of(&i);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      opt.verbose = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "unknown option: %s (expected [accesses [warmup]] --jobs N "
                   "--json FILE --crypto-backend ref|ttable|hw|auto --verbose)\n",
                   argv[i]);
      std::exit(2);
    } else if (positional == 0) {
      opt.accesses = parse_u64("accesses", argv[i]);
      ++positional;
    } else if (positional == 1) {
      opt.warmup = parse_u64("warmup", argv[i]);
      ++positional;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opt;
}

/// Write `table` (plus the run's sizing, for provenance) as JSON to `path`.
/// `extra_members` is appended verbatim inside the top-level object (e.g.
/// `, "figures": {...}`). Returns false — with the failing path and OS
/// error on stderr — if the file cannot be opened or the write does not
/// complete (e.g. disk full); a recorded bench trajectory must never
/// silently drop a data point.
inline bool write_table_json(const std::string& path, const ResultTable& table,
                             const BenchOptions& opt,
                             const std::string& extra_members = {}) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const int written = std::fprintf(
      f,
      "{\"accesses\": %llu, \"warmup\": %llu, \"jobs\": %u, \"crypto_backend\": \"%s\",\n"
      " \"table\": %s%s}\n",
      static_cast<unsigned long long>(opt.accesses),
      static_cast<unsigned long long>(opt.warmup), opt.jobs,
      crypto::backend_name(crypto::active_backend()), table.to_json().c_str(),
      extra_members.c_str());
  const bool flushed = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || written < 0 || !flushed) {
    std::fprintf(stderr, "error writing JSON output %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace steins::bench
