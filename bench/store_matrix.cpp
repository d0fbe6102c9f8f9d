// The application-level store benches in one run, optionally recorded as one
// JSON file (BENCH_store.json):
//
//   store_matrix [accesses [warmup]] [--jobs N] [--json FILE]
//
//   table          KV service: every scheme x YCSB mix through the serving
//                  engine's ycsb_preset() (one table interleaved over 2
//                  controllers, 4 closed-loop clients, no group commit)
//   serving        §IV-F concurrent serving: Steins, mix A, one shard per
//                  controller at 1/2/4 shards, load-aware routing, group
//                  commit 64 (SecPM-style write coalescing), every shard
//                  with the full 256 KB metadata cache; serving_table is
//                  its printed table
//   serving_iso    the same sweep at equal total metadata cache: each of N
//                  shards gets 256 KB / N
//   lsm            LSM engine: every scheme x YCSB mix over a
//                  compaction-heavy geometry (2 KiB memtable, L0 trigger 4)
//   degraded       degraded-mode availability: per scheme and dead-line
//                  budget, kill resident lines of a 192-key store, crash,
//                  recover, reopen and audit every committed key
//
// `accesses` sets the KV matrix and serving ops; LSM cells run accesses / 10
// ops (an LSM op is much heavier than a KV one); degraded cells keep a fixed
// 192 keys. `warmup` is recorded only. Every cell of every section goes into
// one list and runs through one ThreadPool fan-out; cells share no state, so
// any --jobs gives the same output. Each degraded cell is scored with the
// shared crash verdict (fault/verdict.hpp); the exit status is 1 if any of
// them is silent or unrecoverable. `tools/ci/bench_gate.py store` checks the
// file against BENCH_store.json and its bands.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "fault/verdict.hpp"
#include "kv/kv_store.hpp"
#include "kv/lsm/lsm_ycsb.hpp"
#include "kv/serving.hpp"
#include "kv/store_crash.hpp"
#include "sim/system.hpp"

using namespace steins;

namespace {

const Scheme kMatrixSchemes[] = {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                                 Scheme::kScue, Scheme::kSteins};
const kv::Mix kMixes[] = {kv::Mix::kA, kv::Mix::kB, kv::Mix::kC, kv::Mix::kF};
const unsigned kShardCounts[] = {1, 2, 4};

// One degraded-mode cell, scored with the shared crash verdict.
struct DegradedCell : CrashVerdict {
  std::uint64_t dead_lines = 0;
  bool read_only = false;
  std::uint64_t keys_ok = 0;           // read back exactly
  std::uint64_t keys_unavailable = 0;  // failed with a typed unavailable error
  std::uint64_t keys_wrong = 0;        // a failing verdict: keys the audit did not vouch for
  std::uint64_t blocks_quarantined = 0;
  std::uint64_t subtrees_quarantined = 0;
  double read_latency_cycles = 0.0;  // mean over the post-recovery audit reads
};

using Result = std::variant<kv::ServingResult, lsm::LsmYcsbResult, DegradedCell>;
using Cells = bench::Cells<Result>;

// A section queues its cells, then (after Cells::run) prints its tables and
// returns its JSON members.
using Report = std::function<std::string(const Cells&)>;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cell_label(Scheme scheme, kv::Mix mix) {
  return scheme_name(scheme, CounterMode::kGeneral) + "/" + kv::mix_name(mix);
}

// Every section runs the default CPU clock.
double ns_per_cycle() { return default_config().cycles_to_seconds(1) * 1e9; }

// The KV and LSM regions are small.
SystemConfig store_config(std::uint64_t capacity_mb) {
  SystemConfig c = default_config();
  c.nvm.capacity_bytes = capacity_mb << 20;
  return c;
}

// Scheme x mix through ycsb_preset().
Report kv_matrix(Cells& cells, const bench::BenchOptions& opt) {
  std::vector<std::pair<std::string, std::size_t>> rows;
  for (const Scheme scheme : kMatrixSchemes) {
    for (const kv::Mix mix : kMixes) {
      rows.emplace_back(cell_label(scheme, mix), cells.add([=, ops = opt.accesses]() -> Result {
        kv::ServingConfig ycfg = kv::ycsb_preset();
        ycfg.mix = mix;
        ycfg.ops = ops;
        return kv::run_sharded_serving(store_config(256), scheme, ycfg);
      }));
    }
  }
  return [rows](const Cells& r) {
    const double ns = ns_per_cycle();
    ResultTable t("KV throughput and latency by scheme/mix",
                  {"kops_s", "mean_ns", "p50_ns", "p95_ns", "p99_ns", "p999_ns"});
    for (const auto& [label, id] : rows) {
      const auto& s = std::get<kv::ServingResult>(r[id]);
      const LatencyHistogram& h = s.all_lat;
      t.add_row(label, {s.kops_per_sec, h.mean() * ns, h.percentile(50) * ns,
                        h.percentile(95) * ns, h.percentile(99) * ns, h.percentile(99.9) * ns});
    }
    t.print();
    return "\"table\": " + t.to_json();
  };
}

// Steins, mix A at 1/2/4 shards. Shard counts are simulated topology, not
// host threads, so the rows are deterministic on any runner; the serving
// jobs only change wall-clock. `iso_cache` splits the 256 KB metadata cache
// over the shards; at one shard that is the full-cache cell, so the iso
// sweep reuses it.
kv::ServingConfig serving_config(unsigned shards, const bench::BenchOptions& opt) {
  kv::ServingConfig scfg;
  scfg.mix = kv::Mix::kA;
  scfg.clients = 4;
  scfg.shards = shards;
  scfg.ops = opt.accesses;
  scfg.keys = std::max<std::uint64_t>(opt.accesses / 4, 1000);
  // Per-shard tables sized for the worst case (every key on one shard) so
  // all rows share one layout and stay comparable.
  std::size_t slots = std::size_t{1} << 14;
  while (slots < 4 * scfg.keys) slots <<= 1;
  scfg.slots = slots;
  scfg.jobs = opt.jobs;
  return scfg;
}

ResultTable serving_table(const std::string& title, const std::vector<kv::ServingResult>& rows) {
  const double ns = ns_per_cycle();
  ResultTable t(title, {"kops_s", "speedup", "p50_ns", "p99_ns", "p999_ns", "mean_batch"});
  const double base = rows.front().kops_per_sec;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const kv::ServingResult& s = rows[i];
    t.add_row("Steins/serve" + std::to_string(kShardCounts[i]),
              {s.kops_per_sec, base > 0 ? s.kops_per_sec / base : 0.0,
               s.all_lat.percentile(50) * ns, s.all_lat.percentile(99) * ns,
               s.all_lat.percentile(99.9) * ns, s.batch_sizes.mean()});
  }
  return t;
}

std::string serving_json(const std::vector<kv::ServingResult>& rows) {
  std::ostringstream ex;
  ex << "\"serving\": {\"scheme\": \"steins\", \"mix\": \"a\", \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const kv::ServingResult& s = rows[i];
    ex << (i ? ",\n  " : "\n  ") << "{\"shards\": " << kShardCounts[i]
       << ", \"kops_per_sec\": " << num(s.kops_per_sec) << ", \"ops\": " << s.ops
       << ", \"shed_ops\": " << s.shed_ops << ", \"commit_writes\": " << s.commit_writes
       << ", \"image_digest\": \"" << std::hex << s.image_digest << std::dec
       << "\", \"batch\": {\"count\": " << s.batch_sizes.count()
       << ", \"mean\": " << num(s.batch_sizes.mean())
       << ", \"p50\": " << num(s.batch_sizes.percentile(50))
       << ", \"p95\": " << num(s.batch_sizes.percentile(95))
       << ", \"max\": " << s.batch_sizes.max() << "}, \"occupancy\": [";
    for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
      ex << (sh ? ", " : "") << num(s.shards[sh].occupancy);
    }
    ex << "], \"shard_ops\": [";
    for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
      ex << (sh ? ", " : "") << s.shards[sh].ops;
    }
    ex << "]}";
  }
  const double base = rows.front().kops_per_sec;
  ex << "\n ], \"speedup_4\": " << num(base > 0 ? rows.back().kops_per_sec / base : 0.0) << "}";
  return ex.str();
}

Report serving(Cells& cells, const bench::BenchOptions& opt) {
  const auto queue = [&](unsigned shards, bool iso_cache) {
    return cells.add([=, scfg = serving_config(shards, opt)]() -> Result {
      SystemConfig cfg = store_config(256);
      auto& cache = cfg.secure.metadata_cache.size_bytes;
      if (iso_cache) cache = std::bit_floor(cache / shards);
      return kv::run_sharded_serving(cfg, Scheme::kSteins, scfg);
    });
  };
  std::vector<std::size_t> full, iso;
  for (const unsigned shards : kShardCounts) {
    full.push_back(queue(shards, false));
    iso.push_back(shards == 1 ? full.back() : queue(shards, true));
  }
  return [full, iso](const Cells& r) {
    const auto results = [&](const std::vector<std::size_t>& ids) {
      std::vector<kv::ServingResult> out;
      for (const std::size_t id : ids) out.push_back(std::get<kv::ServingResult>(r[id]));
      return out;
    };
    const std::vector<kv::ServingResult> full_rows = results(full);
    const ResultTable t = serving_table(
        "Concurrent serving scaling (Steins/a, load routing, group commit)", full_rows);
    const ResultTable iso_t = serving_table(
        "Iso-resource serving scaling (256 KB metadata cache split over the shards)",
        results(iso));
    std::printf("\n");
    t.print();
    std::printf("\n");
    iso_t.print();
    return serving_json(full_rows) + ",\n \"serving_table\": " + t.to_json() +
           ",\n \"serving_iso\": " + iso_t.to_json();
  };
}

// Scheme x mix through the LSM engine. Each cell's write amplification has
// two views: wa (scheme level: NVM block writes, data + counters + tree +
// shadow, * 64 per user byte put) and wa_log (engine level: WAL + run bytes
// persisted per user byte put); the gap is the security tax on a
// log-structured write path.
Report lsm_matrix(Cells& cells, const bench::BenchOptions& opt) {
  lsm::LsmYcsbConfig ycfg;
  ycfg.ops = opt.accesses / 10;
  // A 2 KiB memtable over a 2k-key universe keeps flushes and L0
  // compactions running throughout the measured window.
  ycfg.engine.memtable_limit_bytes = 2048;
  ycfg.engine.l0_compact_trigger = 4;
  std::vector<std::pair<std::string, std::size_t>> rows;
  for (const Scheme scheme : kMatrixSchemes) {
    for (const kv::Mix mix : kMixes) {
      rows.emplace_back(cell_label(scheme, mix), cells.add([=]() -> Result {
        lsm::LsmYcsbConfig c = ycfg;
        c.mix = mix;
        return lsm::run_lsm_ycsb(store_config(64), scheme, c);
      }));
    }
  }
  return [rows](const Cells& r) {
    const double ns = ns_per_cycle();
    ResultTable t("LSM throughput, latency, and write amplification by scheme/mix",
                  {"kops_s", "p50_ns", "p99_ns", "wa", "wa_log", "flushes", "compactions"});
    for (const auto& [label, id] : rows) {
      const auto& s = std::get<lsm::LsmYcsbResult>(r[id]);
      t.add_row(label, {s.kops_per_sec, s.all_lat.percentile(50) * ns,
                        s.all_lat.percentile(99) * ns, s.write_amp, s.logical_write_amp,
                        static_cast<double>(s.engine_stats.flushes),
                        static_cast<double>(s.engine_stats.compactions)});
    }
    std::printf("\n");
    t.print();
    return "\"lsm\": " + t.to_json();
  };
}

constexpr std::uint64_t kDegradedKeys = 192;
constexpr std::uint64_t kDegradedSeed = 42;

// The store crash harness's audit of a reopened store: an exact diff, or —
// when recovery salvaged, or a line recovery never scans (ASIT/STAR rebuild
// from tracking metadata only) surfaces typed on first read — the salvage
// diff: every committed key reads back exactly or fails typed, and the
// degraded dump serves nothing uncommitted.
void audit(kv::KvStore& store, const std::map<std::uint64_t, std::string>& model,
           DegradedCell* out) {
  if (!out->salvaged) {
    try {
      out->detail = kv::store_crash::diff_detail(model, store.dump());
      out->verified = out->detail.empty();
      return;
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      out->salvaged = true;
    }
  }
  out->degraded_verified =
      salvage_committed_keys(store, model, &out->keys_unavailable, &out->detail) &&
      kv::store_crash::served_only_committed(store.dump_degraded().live, model, &out->detail);
}

// Populate a KV store, kill `dead_lines` resident lines of its region with
// uncorrectable ECC faults, crash, recover (salvage mode quarantines what
// cannot be re-verified), reopen and audit every committed key.
DegradedCell run_degraded(Scheme scheme, std::uint64_t dead_lines) {
  SystemConfig cfg = store_config(16);
  cfg.secure.ft.ecc_enabled = true;

  DegradedCell out;
  out.dead_lines = dead_lines;
  out.faulted = dead_lines > 0;

  System sys(cfg, scheme);
  kv::KvLayout layout;
  layout.slots = 1024;
  kv::KvStore store(sys, layout);

  std::map<std::uint64_t, std::string> model;
  Xoshiro256 rng(kDegradedSeed);
  for (std::uint64_t k = 0; k < kDegradedKeys; ++k) {
    std::string value = "val" + std::to_string(rng.next() & 0xffff) + "-key" + std::to_string(k);
    store.put(k, value);
    model[k] = std::move(value);
  }

  // Kill resident lines inside the store's region, spread deterministically.
  NvmDevice& dev = sys.memory().device();
  std::vector<Addr> targets =
      dev.resident_blocks(layout.base, layout.base + layout.region_bytes());
  Xoshiro256 frng(kDegradedSeed * 0x9e3779b97f4a7c15ULL + 3);
  for (std::size_t i = targets.size(); i > 1; --i) {
    std::swap(targets[i - 1], targets[frng.below(i)]);
  }
  const std::uint64_t n = std::min<std::uint64_t>(dead_lines, targets.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    dev.inject_ecc_error(targets[i], static_cast<unsigned>(frng.below(kBlockSize * 8)),
                         /*correctable=*/false, 0);
  }

  const RecoveryReport r = sys.crash_and_recover();
  out.blocks_quarantined = r.blocks_quarantined;
  out.subtrees_quarantined = r.subtrees_quarantined;
  if (!classify_recovery(r, &out)) {
    try {
      sys.resync_truth_after_crash();
      kv::KvStore reopened(sys, layout);
      reopened.apply_recovery_report(r);
      out.read_only = reopened.read_only();
      sys.reset_stats();
      audit(reopened, model, &out);
      out.read_latency_cycles = sys.collect_stats().read_latency_cycles;
    } catch (const IntegrityViolation& e) {
      out.fault_detected = out.faulted;
      out.detail = std::string("reopen raised: ") + e.what();
    } catch (const StatusError& e) {
      out.detail = std::string("reopen failed: ") + e.what();
    } catch (const kv::KvCorruption& e) {
      out.detail = e.what();
    }
  }
  out.keys_ok = out.verified            ? kDegradedKeys
                : out.degraded_verified ? kDegradedKeys - out.keys_unavailable
                                        : 0;
  if (!out.pass(scheme)) out.keys_wrong = kDegradedKeys - out.keys_ok - out.keys_unavailable;
  return out;
}

Report degraded(Cells& cells, bool* clean) {
  static const Scheme kSchemes[] = {Scheme::kAnubis, Scheme::kStar, Scheme::kScue,
                                    Scheme::kSteins};
  static const std::uint64_t kBudgets[] = {0, 2, 8, 32};
  std::vector<std::pair<Scheme, std::size_t>> ids;
  for (const Scheme scheme : kSchemes) {
    for (const std::uint64_t dead : kBudgets) {
      ids.emplace_back(scheme, cells.add([=]() -> Result { return run_degraded(scheme, dead); }));
    }
  }
  return [ids, clean](const Cells& r) {
    std::printf("\nDegraded-mode KV availability (%llu keys, seed %llu)\n",
                static_cast<unsigned long long>(kDegradedKeys),
                static_cast<unsigned long long>(kDegradedSeed));
    std::printf("%-12s %10s %8s %8s %8s %-22s %12s %10s\n", "scheme", "dead-lines", "ok",
                "typed", "WRONG", "verdict", "recovery-s", "read-cyc");
    std::string json = "\"degraded\": {\"keys\": " + std::to_string(kDegradedKeys) +
                       ", \"seed\": " + std::to_string(kDegradedSeed) + ", \"cells\": [";
    for (const auto& [scheme, id] : ids) {
      const auto& c = std::get<DegradedCell>(r[id]);
      const std::string name = scheme_name(scheme, CounterMode::kGeneral);
      const char* verdict = verdict_name(c.verdict(scheme));
      std::printf("%-12s %10llu %8llu %8llu %8llu %-22s %12.6f %10.1f\n", name.c_str(),
                  static_cast<unsigned long long>(c.dead_lines),
                  static_cast<unsigned long long>(c.keys_ok),
                  static_cast<unsigned long long>(c.keys_unavailable),
                  static_cast<unsigned long long>(c.keys_wrong), verdict, c.recovery_seconds,
                  c.read_latency_cycles);
      if (!c.pass(scheme)) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(), c.detail.c_str());
        *clean = false;
      }
      std::ostringstream os;
      os << (id == ids.front().second ? "\n  " : ",\n  ") << "{\"scheme\": \"" << name
         << "\", \"dead_lines\": " << c.dead_lines << ", \"verdict\": \"" << verdict
         << "\", \"keys_ok\": " << c.keys_ok << ", \"keys_unavailable\": " << c.keys_unavailable
         << ", \"keys_wrong\": " << c.keys_wrong
         << ", \"read_only\": " << (c.read_only ? "true" : "false")
         << ", \"blocks_quarantined\": " << c.blocks_quarantined
         << ", \"subtrees_quarantined\": " << c.subtrees_quarantined
         << ", \"recovery_seconds\": " << num(c.recovery_seconds)
         << ", \"read_latency_cycles\": " << num(c.read_latency_cycles) << "}";
      json += os.str();
    }
    return json + "\n ]}";
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  Cells cells;
  bool degraded_clean = true;
  const Report sections[] = {kv_matrix(cells, opt), serving(cells, opt), lsm_matrix(cells, opt),
                             degraded(cells, &degraded_clean)};
  std::printf("Store matrix: %llu KV ops, %llu LSM ops and %llu degraded keys per cell, "
              "%u job(s)\n\n",
              static_cast<unsigned long long>(opt.accesses),
              static_cast<unsigned long long>(opt.accesses / 10),
              static_cast<unsigned long long>(kDegradedKeys), opt.jobs);
  cells.run(opt.jobs);

  std::string json;
  for (const Report& report : sections) json += (json.empty() ? "" : ",\n ") + report(cells);
  if (!opt.json_path.empty()) {
    if (!bench::write_json(opt.json_path, opt, json)) return 1;
    std::printf("\nwrote JSON results to %s\n", opt.json_path.c_str());
  }
  if (!degraded_clean) {
    std::fprintf(stderr, "\nFAIL: a degraded-mode cell is silent or unrecoverable\n");
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
