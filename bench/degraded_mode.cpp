// Degraded-mode KV service bench: availability and read latency of a store
// running over a salvaged secure-memory instance.
//
// For each scheme and each dead-line budget, the bench populates a KV
// store, kills a set of resident lines in the store's NVM region with
// uncorrectable ECC faults, crashes, recovers (salvage mode quarantines
// what cannot be re-verified), reopens the store, and audits every
// committed key: it must read back exactly or fail with a typed
// unavailable error. The JSON artifact records availability, typed-error
// counts, recovery time, and post-salvage read latency — the graceful-
// degradation curve. Exit status is nonzero if any key reads back wrong
// (silent corruption) or a recovery crashes.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "kv/kv_store.hpp"
#include "sim/system.hpp"

using namespace steins;

namespace {

struct CellResult {
  std::string scheme;
  std::uint64_t dead_lines = 0;
  bool salvaged = false;
  bool read_only = false;
  std::uint64_t keys_ok = 0;
  std::uint64_t keys_unavailable = 0;
  std::uint64_t keys_wrong = 0;
  std::uint64_t blocks_quarantined = 0;
  std::uint64_t subtrees_quarantined = 0;
  double recovery_seconds = 0.0;
  double read_latency_cycles = 0.0;  // mean, post-salvage audit reads
};

CellResult run_cell(Scheme scheme, CounterMode mode, std::uint64_t dead_lines,
                    std::uint64_t keys, std::uint64_t seed) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = std::uint64_t{16} * 1024 * 1024;
  cfg.counter_mode = mode;
  cfg.secure.ft.ecc_enabled = true;

  CellResult out;
  out.scheme = scheme_name(scheme, mode);
  out.dead_lines = dead_lines;

  System sys(cfg, scheme);
  kv::KvLayout layout;
  layout.slots = 1024;
  kv::KvStore store(sys, layout);

  std::map<std::uint64_t, std::string> model;
  Xoshiro256 rng(seed);
  for (std::uint64_t k = 0; k < keys; ++k) {
    std::string value = "val" + std::to_string(rng.next() & 0xffff) + "-key" +
                        std::to_string(k);
    store.put(k, value);
    model[k] = std::move(value);
  }

  // Kill resident lines inside the store's region, spread deterministically.
  NvmDevice& dev = sys.memory().device();
  const std::vector<Addr> resident =
      dev.resident_blocks(layout.base, layout.base + layout.region_bytes());
  Xoshiro256 frng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<Addr> targets = resident;
  for (std::size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[frng.below(i)]);
  }
  const std::uint64_t n = std::min<std::uint64_t>(dead_lines, targets.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.inject_ecc_error(targets[i], static_cast<unsigned>(frng.below(kBlockSize * 8)),
                         /*correctable=*/false, 0);
  }

  const RecoveryReport r = sys.crash_and_recover();
  out.salvaged = !r.attack_detected && r.status.ok() && r.degraded();
  out.blocks_quarantined = r.blocks_quarantined;
  out.subtrees_quarantined = r.subtrees_quarantined;
  out.recovery_seconds = r.seconds;
  if (!r.status.ok()) {
    std::fprintf(stderr, "recovery internal error: %s\n", r.status.to_string().c_str());
    out.keys_wrong = keys;  // count as failure
    return out;
  }
  sys.resync_truth_after_crash();

  kv::KvStore reopened(sys, layout);
  reopened.apply_recovery_report(r);
  out.read_only = reopened.read_only();

  sys.reset_stats();
  for (const auto& [key, value] : model) {
    const auto got = reopened.try_get(key);
    if (!got.has_value()) {
      if (is_unavailable(got.status().code())) {
        ++out.keys_unavailable;
      } else {
        ++out.keys_wrong;
      }
      continue;
    }
    if (got.value().has_value() && *got.value() == value) {
      ++out.keys_ok;
    } else {
      ++out.keys_wrong;
    }
  }
  out.read_latency_cycles = sys.collect_stats().read_latency_cycles;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // parse_options() sizes benches in accesses; here one "access" is one key.
  bench::BenchOptions opt = bench::parse_options(argc, argv, /*default_accesses=*/192);
  const std::uint64_t keys = opt.accesses;
  std::uint64_t seed = 42;
  if (const char* env = std::getenv("STEINS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }

  const std::vector<Scheme> schemes = {Scheme::kAnubis, Scheme::kStar, Scheme::kScue,
                                       Scheme::kSteins};
  const std::vector<std::uint64_t> budgets = {0, 2, 8, 32};

  std::vector<CellResult> results;
  bool failed = false;
  std::printf("degraded-mode KV availability (%llu keys, seed %llu)\n\n",
              static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(seed));
  std::printf("%-12s %10s %8s %8s %12s %8s %12s %12s\n", "scheme", "dead-lines",
              "ok", "typed", "WRONG", "salvaged", "recovery-s", "read-cyc");
  for (const Scheme scheme : schemes) {
    for (const std::uint64_t dead : budgets) {
      const CellResult c = run_cell(scheme, CounterMode::kGeneral, dead, keys, seed);
      std::printf("%-12s %10llu %8llu %8llu %12llu %8s %12.6f %12.1f\n",
                  c.scheme.c_str(), static_cast<unsigned long long>(c.dead_lines),
                  static_cast<unsigned long long>(c.keys_ok),
                  static_cast<unsigned long long>(c.keys_unavailable),
                  static_cast<unsigned long long>(c.keys_wrong),
                  c.salvaged ? "yes" : "no", c.recovery_seconds,
                  c.read_latency_cycles);
      if (c.keys_wrong > 0) failed = true;
      results.push_back(c);
    }
  }

  if (!opt.json_path.empty()) {
    std::ostringstream os;
    os << "{\n \"bench\": \"degraded_mode\",\n \"keys\": " << keys
       << ",\n \"seed\": " << seed << ",\n \"cells\": [";
    bool first = true;
    for (const CellResult& c : results) {
      os << (first ? "" : ",") << "\n  {\"scheme\": \"" << c.scheme
         << "\", \"dead_lines\": " << c.dead_lines
         << ", \"keys_ok\": " << c.keys_ok
         << ", \"keys_unavailable\": " << c.keys_unavailable
         << ", \"keys_wrong\": " << c.keys_wrong
         << ", \"salvaged\": " << (c.salvaged ? "true" : "false")
         << ", \"read_only\": " << (c.read_only ? "true" : "false")
         << ", \"blocks_quarantined\": " << c.blocks_quarantined
         << ", \"subtrees_quarantined\": " << c.subtrees_quarantined
         << ", \"recovery_seconds\": " << c.recovery_seconds
         << ", \"read_latency_cycles\": " << c.read_latency_cycles << "}";
      first = false;
    }
    os << "\n ]\n}\n";
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    const std::string json = os.str();
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "error writing JSON output %s\n", opt.json_path.c_str());
      return 1;
    }
    std::printf("\nwrote JSON results to %s\n", opt.json_path.c_str());
  }

  if (failed) {
    std::fprintf(stderr, "\nFAIL: a committed key read back wrong after salvage\n");
    return 1;
  }
  return 0;
}
