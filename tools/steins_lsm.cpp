// steins_lsm: the log-structured storage engine front end.
//
//   steins_lsm --mix a --ops 20000
//   steins_lsm --scheme steins,scue --mix f --crash --json lsm.json
//
// For each scheme it runs the YCSB-over-LSM driver (throughput, tail
// latency, and both write-amplification views: scheme-level NVM blocks
// per user byte vs the engine's own WAL+run bytes per user byte), and
// with --crash also the crash-at-persist-boundary matrix: the scripted
// workload killed at every stride-th persist barrier, recovered, reopened
// and diffed against the committed model. Exit status is nonzero if any
// scheme's matrix reports silent corruption (or WB is not detected as
// unrecoverable).
//
// Flag parsing is strict: unknown --flags and flags missing their value
// are errors (exit 2), never silently ignored.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "kv/lsm/lsm_crash.hpp"
#include "kv/lsm/lsm_ycsb.hpp"

using namespace steins;
using namespace steins::lsm;

namespace {

struct Options {
  std::string schemes = "wb,asit,star,scue,steins";
  std::string mix = "a";
  std::uint64_t ops = 20'000;
  std::uint64_t keys = 2'048;
  std::uint64_t value_bytes = 24;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  std::uint64_t capacity_mb = 64;
  std::uint64_t memtable_bytes = 4096;
  std::uint64_t crash_ops = 96;
  std::uint64_t crash_stride = 1;
  unsigned jobs = ThreadPool::default_jobs();
  std::string json_path;
  bool crash = false;
  bool verify = false;
  bool background_compaction = false;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_lsm - log-structured storage engine over the secure NVM simulator\n\n"
      "  --scheme <list>      comma-separated wb|asit|star|scue|steins (default all)\n"
      "  --mix <a|b|c|f>      YCSB mix (default a)\n"
      "  --ops <n>            measured LSM operations (default 20000)\n"
      "  --keys <n>           preloaded keys (default 2048)\n"
      "  --value-bytes <n>    value payload size (default 24)\n"
      "  --zipf <s>           Zipfian skew (default 0.99)\n"
      "  --seed <n>           driver + crash-script seed (default 1)\n"
      "  --capacity-mb <n>    NVM capacity (default 64)\n"
      "  --memtable-bytes <n> memtable flush threshold (default 4096)\n"
      "  --background-compaction  merge compactions on a pool thread, racing\n"
      "                       WAL commits; installed at the next flush barrier\n"
      "  --verify             diff the final engine dump against a shadow model\n"
      "  --crash              run the crash-at-persist-boundary matrix per scheme\n"
      "  --crash-ops <n>      ops in the crash-matrix script (default 96)\n"
      "  --crash-stride <n>   crash every n-th persist barrier (default 1)\n"
      "  --jobs <n>           worker threads for the crash matrix (default\n"
      "                       STEINS_JOBS or hardware threads; any value is\n"
      "                       bit-identical to --jobs 1)\n"
      "  --json <file>        write results (same numbers as printed) as JSON\n"
      "  --crypto-backend <ref|ttable|hw|auto>  crypto backend (bit-identical;\n"
      "                       host wall-clock only; or STEINS_CRYPTO_BACKEND)\n");
}

bool parse(int argc, char** argv, Options* opt) {
  cli::ArgParser p(argc, argv);
  while (p.next()) {
    if (p.is("--scheme")) {
      opt->schemes = p.str();
    } else if (p.is("--mix")) {
      opt->mix = p.str();
    } else if (p.is("--ops")) {
      opt->ops = p.u64();
    } else if (p.is("--keys")) {
      opt->keys = p.u64();
    } else if (p.is("--value-bytes")) {
      opt->value_bytes = p.u64();
    } else if (p.is("--zipf")) {
      opt->zipf_s = p.f64();
    } else if (p.is("--seed")) {
      opt->seed = p.u64();
    } else if (p.is("--capacity-mb")) {
      opt->capacity_mb = p.u64();
    } else if (p.is("--memtable-bytes")) {
      opt->memtable_bytes = p.u64();
    } else if (p.is("--verify")) {
      opt->verify = true;
    } else if (p.is("--background-compaction")) {
      opt->background_compaction = true;
    } else if (p.is("--crash")) {
      opt->crash = true;
    } else if (p.is("--crash-ops")) {
      opt->crash_ops = p.u64();
    } else if (p.is("--crash-stride")) {
      opt->crash_stride = p.u64();
      if (opt->crash_stride < 1) opt->crash_stride = 1;
    } else if (p.is("--jobs")) {
      opt->jobs = p.jobs();
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
  LsmYcsbResult ycsb;
  bool crash_ran = false;
  LsmCrashMatrix matrix;
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
  os << "{\"mix\": \"" << json_escape(opt.mix) << "\", \"ops\": " << opt.ops
     << ", \"keys\": " << opt.keys << ", \"value_bytes\": " << opt.value_bytes
     << ", \"zipf_s\": " << opt.zipf_s << ", \"seed\": " << opt.seed
     << ", \"memtable_bytes\": " << opt.memtable_bytes << ",\n \"schemes\": [";
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
             ", \"p99_ns\": " + num(cycles_to_ns(cfg, h.percentile(99))) + "}";
    };
    os << (i ? ",\n  " : "\n  ") << "{\"scheme\": \"" << json_escape(o.label)
       << "\", \"kops_per_sec\": " << num(o.ycsb.kops_per_sec)
       << ", \"reads\": " << o.ycsb.reads << ", \"updates\": " << o.ycsb.updates
       << ", \"nvm_writes\": " << o.ycsb.nvm_writes
       << ", \"bytes_put\": " << o.ycsb.bytes_put
       << ", \"write_amp\": " << num(o.ycsb.write_amp)
       << ", \"logical_write_amp\": " << num(o.ycsb.logical_write_amp)
       << ", \"flushes\": " << o.ycsb.engine_stats.flushes
       << ", \"compactions\": " << o.ycsb.engine_stats.compactions
       << ", \"bg_compactions\": " << o.ycsb.engine_stats.bg_compactions
       << ", \"all\": " << lat(o.ycsb.all_lat) << ", \"read\": " << lat(o.ycsb.read_lat)
       << ", \"update\": " << lat(o.ycsb.update_lat);
    if (o.crash_ran) {
      const VerdictCounts& c = o.matrix.counts;
      os << ", \"crash_matrix\": {\"trials\": " << c.total()
         << ", \"recovered\": " << c.converged()
         << ", \"detected\": " << c[Verdict::kDetected]
         << ", \"salvaged\": " << c[Verdict::kSalvaged]
         << ", \"silent\": " << c[Verdict::kSilent]
         << ", \"unrecoverable\": " << c[Verdict::kUnrecoverable]
         << ", \"total_persists\": " << o.matrix.total_persists
         << ", \"pass\": " << (o.crash_pass ? "true" : "false") << "}";
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

  const std::optional<kv::Mix> mix = kv::parse_mix(opt.mix);
  if (!mix) {
    std::fprintf(stderr, "unknown mix: %s (expected a, b, c, or f)\n", opt.mix.c_str());
    return 2;
  }

  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = opt.capacity_mb << 20;

  LsmYcsbConfig ycfg;
  ycfg.mix = *mix;
  ycfg.ops = opt.ops;
  ycfg.keys = opt.keys;
  ycfg.value_bytes = static_cast<std::size_t>(opt.value_bytes);
  ycfg.zipf_s = opt.zipf_s;
  ycfg.seed = opt.seed;
  ycfg.engine.memtable_limit_bytes = opt.memtable_bytes;
  ycfg.engine.background_compaction = opt.background_compaction;
  ycfg.verify = opt.verify;

  LsmCrashOptions ccfg;
  ccfg.ops = opt.crash_ops;
  ccfg.seed = opt.seed;

  std::vector<SchemeOutcome> outcomes;
  bool all_pass = true;
  try {
    std::printf("LSM engine: mix %s, %llu ops over %llu keys, memtable %llu B\n\n",
                kv::mix_name(*mix), static_cast<unsigned long long>(opt.ops),
                static_cast<unsigned long long>(opt.keys),
                static_cast<unsigned long long>(opt.memtable_bytes));
    std::printf("%-11s %10s %9s %9s %8s %8s   %s\n", "scheme", "kops/s", "p50_ns",
                "p99_ns", "WA", "WA(log)", opt.crash ? "crash matrix" : "");
    for (const std::string& name : cli::split_csv(opt.schemes)) {
      const auto parsed = cli::parse_scheme(name);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "unknown scheme: %s (try --help)\n", name.c_str());
        return 2;
      }
      const Scheme scheme = *parsed;
      SchemeOutcome o;
      o.label = scheme_name(scheme, cfg.counter_mode);
      o.ycsb = run_lsm_ycsb(cfg, scheme, ycfg);
      if (opt.verify && !o.ycsb.verified) {
        std::fprintf(stderr, "verification FAILED for %s\n", o.label.c_str());
        all_pass = false;
      }
      std::string crash_note;
      if (opt.crash) {
        o.crash_ran = true;
        o.matrix = run_lsm_crash_matrix(cfg, scheme, ccfg, opt.crash_stride, opt.jobs);
        const VerdictCounts& c = o.matrix.counts;
        o.crash_pass = c.clean();
        all_pass = all_pass && o.crash_pass;
        crash_note = std::to_string(c.total()) + " trials: " +
                     std::to_string(c.converged()) + " recovered, " +
                     std::to_string(c[Verdict::kDetected]) + " detected, " +
                     std::to_string(c[Verdict::kSalvaged]) + " salvaged, " +
                     std::to_string(c[Verdict::kSilent]) + " silent, " +
                     std::to_string(c[Verdict::kUnrecoverable]) + " unrecoverable";
        if (!o.crash_pass) crash_note += "  FAIL";
      }
      std::printf("%-11s %10.1f %9.0f %9.0f %8.2f %8.2f   %s\n", o.label.c_str(),
                  o.ycsb.kops_per_sec, cycles_to_ns(cfg, o.ycsb.all_lat.percentile(50)),
                  cycles_to_ns(cfg, o.ycsb.all_lat.percentile(99)), o.ycsb.write_amp,
                  o.ycsb.logical_write_amp, crash_note.c_str());
      outcomes.push_back(std::move(o));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!opt.json_path.empty()) emit_json(opt, cfg, outcomes);
  if (!all_pass) {
    std::fprintf(stderr, "\nLSM validation FAILED for at least one scheme\n");
    return 1;
  }
  return 0;
}
