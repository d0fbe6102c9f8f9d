// steins_kv: the secure-NVM key-value service front end.
//
//   steins_kv --mix a --clients 4 --crash
//   steins_kv --scheme steins,scue --mix f --ops 200000 --json kv.json
//
// For each scheme it runs the KV serving engine (kv/serving.hpp) over
// MultiControllerMemory — by default as its interleaved multi-client YCSB
// preset, with --serve as one shard per controller — reporting throughput
// and tail latency, and with --crash also
// the KV crash-recovery validation: a deterministic op script killed at a
// seeded-random persist boundary, recovered, reopened, and diffed against
// the committed model. Steins/ASIT/STAR/SCUE must verify; WB must be
// detected as unrecoverable. Exit status is nonzero if any scheme fails
// its criterion.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "crypto/backend.hpp"
#include "kv/kv_crash.hpp"
#include "kv/serving.hpp"

using namespace steins;
using namespace steins::kv;

namespace {

struct Options {
  std::string schemes = "wb,asit,star,scue,steins";
  std::string mix = "a";
  unsigned clients = 4;
  unsigned controllers = 2;
  std::uint64_t ops = 100'000;
  std::uint64_t keys = 10'000;
  std::uint64_t slots = 1 << 15;
  std::uint64_t value_bytes = 24;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  std::uint64_t capacity_mb = 256;
  std::uint64_t mcache_kb = 256;
  std::uint64_t crash_ops = 64;
  std::uint64_t nested_crash_boundary = 0;  // 0 = off (DESIGN.md §17)
  bool nested_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;
  unsigned jobs = ThreadPool::default_jobs();
  std::string json_path;
  bool crash = false;
  bool serve = false;
  unsigned shards = 2;
  std::string routing = "load";
  std::uint64_t queue_depth = 0;
  std::uint64_t group_commit = 64;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_kv - crash-consistent KV service over the secure NVM simulator\n\n"
      "  --scheme <list>      comma-separated wb|asit|star|scue|steins (default all)\n"
      "  --mix <a|b|c|f>      YCSB mix (default a)\n"
      "  --clients <n>        closed-loop clients (default 4)\n"
      "  --controllers <n>    memory controllers / DIMMs (default 2)\n"
      "  --ops <n>            measured KV operations (default 100000)\n"
      "  --keys <n>           preloaded keys (default 10000)\n"
      "  --slots <n>          table slots, power of two (default 32768)\n"
      "  --value-bytes <n>    value payload size, <= 32 (default 24)\n"
      "  --zipf <s>           Zipfian skew (default 0.99)\n"
      "  --seed <n>           driver + crash-boundary seed (default 1)\n"
      "  --capacity-mb <n>    NVM capacity (default 256)\n"
      "  --mcache-kb <n>      metadata cache size (default 256)\n"
      "  --jobs <n>           worker threads for controller replay (default\n"
      "                       STEINS_JOBS or hardware threads; any value is\n"
      "                       bit-identical to --jobs 1)\n"
      "  --serve              serve with --shards/--routing/--queue-depth/\n"
      "                       --group-commit instead of the YCSB preset (one\n"
      "                       table interleaved over --controllers, no group\n"
      "                       commit); --jobs caps the threads, bit-identical\n"
      "  --shards <n>         serving controllers (default 2)\n"
      "  --routing <hash|load|interleave>  key->table routing (default load)\n"
      "  --queue-depth <n>    per-shard admitted ops per epoch; overflow sheds\n"
      "                       into typed degraded verdicts (default 0 = unbounded)\n"
      "  --group-commit <n>   commit words buffered per shard before one\n"
      "                       coalesced commit-block flush (default 64, 0 = off)\n"
      "  --crash              also run crash-recovery validation per scheme\n"
      "  --crash-ops <n>      ops in the crash-validation script (default 64)\n"
      "  --nested-crash <b[,rearm]>  with --crash: crash the recovery itself at\n"
      "                       persist boundary b (1-based) and re-enter it;\n"
      "                       ',rearm' re-arms the crash on every retry\n"
      "  --max-recovery-attempts <n>  retry budget for crashed recoveries\n"
      "                       (default 8)\n"
      "  --json <file>        write results (same numbers as printed) as JSON\n"
      "  --crypto-backend <ref|ttable|hw|auto>  crypto backend (bit-identical;\n"
      "                       host wall-clock only; or STEINS_CRYPTO_BACKEND)\n");
}

bool parse(int argc, char** argv, Options* opt) {
  cli::ArgParser p(argc, argv);
  while (p.next()) {
    if (p.is("--scheme", "--schemes")) {
      opt->schemes = p.str();
    } else if (p.is("--mix")) {
      opt->mix = p.str();
    } else if (p.is("--clients")) {
      opt->clients = static_cast<unsigned>(p.u64());
    } else if (p.is("--controllers")) {
      opt->controllers = static_cast<unsigned>(p.u64());
    } else if (p.is("--ops")) {
      opt->ops = p.u64();
    } else if (p.is("--keys")) {
      opt->keys = p.u64();
    } else if (p.is("--slots")) {
      opt->slots = p.u64();
    } else if (p.is("--value-bytes")) {
      opt->value_bytes = p.u64();
    } else if (p.is("--zipf")) {
      opt->zipf_s = p.f64();
    } else if (p.is("--seed")) {
      opt->seed = p.u64();
    } else if (p.is("--capacity-mb")) {
      opt->capacity_mb = p.u64();
    } else if (p.is("--mcache-kb")) {
      opt->mcache_kb = p.u64();
    } else if (p.is("--jobs")) {
      opt->jobs = p.jobs();
    } else if (p.is("--serve")) {
      opt->serve = true;
    } else if (p.is("--shards")) {
      opt->shards = static_cast<unsigned>(p.u64());
    } else if (p.is("--routing")) {
      opt->routing = p.str();
    } else if (p.is("--queue-depth")) {
      opt->queue_depth = p.u64();
    } else if (p.is("--group-commit")) {
      opt->group_commit = p.u64();
    } else if (p.is("--crash")) {
      opt->crash = true;
    } else if (p.is("--crash-ops")) {
      opt->crash_ops = p.u64();
    } else if (p.is("--nested-crash")) {
      if (!cli::parse_nested_crash(p, &opt->nested_crash_boundary,
                                   &opt->nested_crash_rearm)) {
        return false;
      }
    } else if (p.is("--max-recovery-attempts")) {
      const std::uint64_t n = p.u64();
      if (p.failed()) return false;
      if (n == 0) {
        p.invalid("invalid --max-recovery-attempts: expected >= 1");
        return false;
      }
      opt->retry_policy.max_recovery_attempts = static_cast<unsigned>(n);
    } else if (p.is("--json")) {
      opt->json_path = p.str();
    } else if (p.is("--crypto-backend")) {
      const std::string name = p.str();
      if (!p.failed() && !cli::apply_crypto_backend(name)) return false;
    } else if (p.is("--help", "-h")) {
      opt->help = true;
    } else {
      p.unknown();
    }
  }
  return !p.failed();
}

struct SchemeOutcome {
  std::string label;
  ServingResult serving;
  bool crash_ran = false;
  KvCrashReport crash;
  ServingCrashReport scrash;  // --serve --crash
  bool crash_pass = true;
};

double cycles_to_ns(const SystemConfig& cfg, double cycles) {
  return cfg.cycles_to_seconds(1) * 1e9 * cycles;
}

void emit_json(const Options& opt, const SystemConfig& cfg,
               const std::vector<SchemeOutcome>& outcomes) {
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s: %s\n", opt.json_path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::ostringstream os;
  os << "{\"mix\": \"" << json_escape(opt.mix) << "\", \"clients\": " << opt.clients
     << ", \"controllers\": " << opt.controllers << ", \"ops\": " << opt.ops
     << ", \"keys\": " << opt.keys << ", \"value_bytes\": " << opt.value_bytes
     << ", \"zipf_s\": " << opt.zipf_s << ", \"seed\": " << opt.seed;
  if (opt.serve) {
    os << ", \"serve\": true, \"shards\": " << opt.shards << ", \"routing\": \""
       << json_escape(opt.routing) << "\", \"queue_depth\": " << opt.queue_depth
       << ", \"group_commit\": " << opt.group_commit;
  }
  os << ",\n \"schemes\": [";
  char buf[64];
  const auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SchemeOutcome& o = outcomes[i];
    const auto lat = [&](const LatencyHistogram& h) {
      return "{\"mean_ns\": " + num(cycles_to_ns(cfg, h.mean())) +
             ", \"p50_ns\": " + num(cycles_to_ns(cfg, h.percentile(50))) +
             ", \"p95_ns\": " + num(cycles_to_ns(cfg, h.percentile(95))) +
             ", \"p99_ns\": " + num(cycles_to_ns(cfg, h.percentile(99))) +
             ", \"p999_ns\": " + num(cycles_to_ns(cfg, h.percentile(99.9))) + "}";
    };
    if (opt.serve) {
      const ServingResult& s = o.serving;
      os << (i ? ",\n  " : "\n  ") << "{\"scheme\": \"" << json_escape(o.label)
         << "\", \"kops_per_sec\": " << num(s.kops_per_sec)
         << ", \"offered_ops\": " << s.offered_ops << ", \"ops\": " << s.ops
         << ", \"reads\": " << s.reads << ", \"updates\": " << s.updates
         << ", \"shed_ops\": " << s.shed_ops
         << ", \"degraded_shards\": " << s.degraded_shards
         << ", \"nvm_writes\": " << s.nvm_writes
         << ", \"commit_writes\": " << s.commit_writes
         << ", \"image_digest\": \"" << std::hex << s.image_digest << std::dec
         << "\", \"mean_batch\": " << num(s.batch_sizes.mean())
         << ", \"all\": " << lat(s.all_lat) << ", \"read\": " << lat(s.read_lat)
         << ", \"update\": " << lat(s.update_lat) << ", \"shards\": [";
      for (std::size_t sh = 0; sh < s.shards.size(); ++sh) {
        const ShardServingStats& st = s.shards[sh];
        os << (sh ? ", " : "") << "{\"keys\": " << st.keys << ", \"ops\": " << st.ops
           << ", \"shed\": " << st.shed
           << ", \"occupancy\": " << num(st.occupancy)
           << ", \"commit_flushes\": " << st.commit_flushes
           << ", \"mean_batch\": " << num(st.mean_batch) << "}";
      }
      os << "]";
      if (o.crash_ran) {
        os << ", \"crash\": {\"pass\": " << (o.crash_pass ? "true" : "false")
           << ", \"crash_at\": " << o.scrash.crash_at
           << ", \"total_accesses\": " << o.scrash.total_accesses
           << ", \"committed_slots\": " << o.scrash.committed_slots
           << ", \"verified\": " << (o.scrash.verified ? "true" : "false")
           << ", \"salvaged\": " << (o.scrash.salvaged ? "true" : "false")
           << ", \"recovery_seconds\": " << num(o.scrash.recovery_seconds)
           << ", \"detail\": \"" << json_escape(o.scrash.detail) << "\"}";
      }
      os << "}";
      continue;
    }
    os << (i ? ",\n  " : "\n  ") << "{\"scheme\": \"" << json_escape(o.label)
       << "\", \"kops_per_sec\": " << num(o.serving.kops_per_sec)
       << ", \"reads\": " << o.serving.reads << ", \"updates\": " << o.serving.updates
       << ", \"nvm_writes\": " << o.serving.nvm_writes
       << ", \"all\": " << lat(o.serving.all_lat) << ", \"read\": " << lat(o.serving.read_lat)
       << ", \"update\": " << lat(o.serving.update_lat);
    if (o.crash_ran) {
      os << ", \"crash\": {\"supported\": " << (o.crash.recovery_supported ? "true" : "false")
         << ", \"recovered\": " << (o.crash.recovery_ok ? "true" : "false")
         << ", \"verified\": " << (o.crash.verified ? "true" : "false")
         << ", \"pass\": " << (o.crash_pass ? "true" : "false")
         << ", \"crash_at\": " << o.crash.crash_at
         << ", \"total_persists\": " << o.crash.total_persists
         << ", \"committed_keys\": " << o.crash.committed_keys
         << ", \"recovery_seconds\": " << num(o.crash.recovery_seconds)
         << ", \"recovery_attempts\": " << o.crash.recovery_attempts
         << ", \"recovery_gave_up\": " << (o.crash.recovery_gave_up ? "true" : "false")
         << ", \"detail\": \"" << json_escape(o.crash.detail) << "\"}";
    }
    os << "}";
  }
  os << "\n]}\n";
  std::fprintf(f, "%s", os.str().c_str());
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "error writing %s: %s\n", opt.json_path.c_str(),
                 std::strerror(errno));
    std::exit(1);
  }
  std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }

  const std::optional<Mix> mix = parse_mix(opt.mix);
  if (!mix) {
    std::fprintf(stderr, "unknown mix: %s (expected a, b, c, or f)\n", opt.mix.c_str());
    return 2;
  }

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = opt.capacity_mb << 20;
  cfg.secure.metadata_cache.size_bytes = opt.mcache_kb * 1024;

  KvCrashOptions ccfg;
  ccfg.ops = opt.crash_ops;
  ccfg.seed = opt.seed;
  ccfg.recovery_crash_boundary = opt.nested_crash_boundary;
  ccfg.recovery_crash_rearm = opt.nested_crash_rearm;
  ccfg.retry_policy = opt.retry_policy;

  const std::optional<Routing> routing = parse_routing(opt.routing);
  if (opt.serve && !routing) {
    std::fprintf(stderr, "unknown routing: %s (expected hash, load or interleave)\n",
                 opt.routing.c_str());
    return 2;
  }
  ServingConfig scfg = opt.serve ? ServingConfig{} : ycsb_preset();
  scfg.mix = *mix;
  scfg.clients = opt.clients;
  scfg.ops = opt.ops;
  scfg.keys = opt.keys;
  scfg.slots = static_cast<std::size_t>(opt.slots);
  scfg.value_bytes = static_cast<std::size_t>(opt.value_bytes);
  scfg.zipf_s = opt.zipf_s;
  scfg.seed = opt.seed;
  scfg.jobs = opt.jobs;
  if (opt.serve) {
    scfg.shards = opt.shards;
    scfg.routing = *routing;
    scfg.queue_depth = opt.queue_depth;
    scfg.group_commit_window = opt.group_commit;
  } else {
    scfg.shards = opt.controllers;
  }
  try {
    validate_serving_config(cfg, scfg);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  std::vector<SchemeOutcome> outcomes;
  bool all_pass = true;
  try {
    if (opt.serve) {
      std::printf(
          "KV serving: mix %s, %u clients, %u shards (%s routing), %llu ops over "
          "%llu keys, group-commit %llu, queue-depth %llu\n\n",
          mix_name(*mix), opt.clients, opt.shards, opt.routing.c_str(),
          static_cast<unsigned long long>(opt.ops),
          static_cast<unsigned long long>(opt.keys),
          static_cast<unsigned long long>(opt.group_commit),
          static_cast<unsigned long long>(opt.queue_depth));
      std::printf("%-11s %10s %9s %9s %9s %8s %7s   %s\n", "scheme", "kops/s",
                  "p50_ns", "p99_ns", "p99.9_ns", "shed", "batch",
                  opt.crash ? "crash-recovery" : "");
    } else {
      std::printf("KV service: mix %s, %u clients, %u controllers, %llu ops over %llu keys\n\n",
                  mix_name(*mix), opt.clients, opt.controllers,
                  static_cast<unsigned long long>(opt.ops),
                  static_cast<unsigned long long>(opt.keys));
      std::printf("%-11s %10s %9s %9s %9s %9s   %s\n", "scheme", "kops/s", "p50_ns",
                  "p95_ns", "p99_ns", "p99.9_ns", opt.crash ? "crash-recovery" : "");
    }
    for (const std::string& name : cli::split_csv(opt.schemes)) {
      const auto scheme_opt = cli::parse_scheme(name);
      if (!scheme_opt.has_value()) {
        std::fprintf(stderr, "unknown scheme: %s (try --help)\n", name.c_str());
        return 2;
      }
      const Scheme scheme = *scheme_opt;
      SchemeOutcome o;
      o.label = scheme_name(scheme, cfg.counter_mode);
      o.serving = run_sharded_serving(cfg, scheme, scfg);
      std::string crash_note;
      if (opt.crash) {
        o.crash_ran = true;
        if (opt.serve) {
          o.scrash = run_serving_crash(cfg, scheme, scfg, ServingCrashOptions{});
          o.crash_pass = o.scrash.pass(scheme);
        } else {
          o.crash = run_kv_crash_validation(cfg, scheme, ccfg);
          o.crash_pass = o.crash.pass(scheme);
        }
        all_pass = all_pass && o.crash_pass;
        if (scheme == Scheme::kWriteBack) {
          crash_note = o.crash_pass ? "unrecoverable (detected, as expected)"
                                    : "FAIL: WB not detected as unrecoverable";
        } else if (!o.crash_pass) {
          crash_note = "FAIL: " + (opt.serve ? o.scrash.detail : o.crash.detail);
        } else if (opt.serve) {
          crash_note = "ok (crash at access " + std::to_string(o.scrash.crash_at) + "/" +
                       std::to_string(o.scrash.total_accesses) + ", " +
                       std::to_string(o.scrash.committed_slots) + " slots verified)";
        } else {
          crash_note = "ok (killed before persist " + std::to_string(o.crash.crash_at) +
                       "/" + std::to_string(o.crash.total_persists) + ", " +
                       std::to_string(o.crash.committed_keys) + " keys verified";
          if (o.crash.recovery_attempts > 1) {
            crash_note += ", " + std::to_string(o.crash.recovery_attempts) +
                          " recovery attempts";
          }
          crash_note += ")";
        }
      }
      const ServingResult& r = o.serving;
      if (opt.serve) {
        std::printf("%-11s %10.1f %9.0f %9.0f %9.0f %8llu %7.1f   %s\n", o.label.c_str(),
                    r.kops_per_sec, cycles_to_ns(cfg, r.all_lat.percentile(50)),
                    cycles_to_ns(cfg, r.all_lat.percentile(99)),
                    cycles_to_ns(cfg, r.all_lat.percentile(99.9)),
                    static_cast<unsigned long long>(r.shed_ops), r.batch_sizes.mean(),
                    crash_note.c_str());
      } else {
        std::printf("%-11s %10.1f %9.0f %9.0f %9.0f %9.0f   %s\n", o.label.c_str(),
                    r.kops_per_sec, cycles_to_ns(cfg, r.all_lat.percentile(50)),
                    cycles_to_ns(cfg, r.all_lat.percentile(95)),
                    cycles_to_ns(cfg, r.all_lat.percentile(99)),
                    cycles_to_ns(cfg, r.all_lat.percentile(99.9)), crash_note.c_str());
      }
      outcomes.push_back(std::move(o));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!opt.json_path.empty()) emit_json(opt, cfg, outcomes);
  if (opt.crash && !all_pass) {
    std::fprintf(stderr, "\ncrash-recovery validation FAILED for at least one scheme\n");
    return 1;
  }
  return 0;
}
