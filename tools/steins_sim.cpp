// steins_sim: command-line front end for the secure NVM simulator.
//
//   steins_sim --scheme steins --mode sc --workload mcf --accesses 200000
//   steins_sim --scheme asit --trace my.trace --crash --audit
//   steins_sim --list
//
// Runs one (scheme, workload) configuration through the full system (CPU +
// caches + controller), optionally crashes and recovers at the end, audits
// the persisted tree, and prints the statistics the paper's figures use.
#include <cstdio>
#include <memory>
#include <string>

#include "cli_common.hpp"
#include "crypto/backend.hpp"
#include "fault/fault.hpp"
#include "schemes/steins.hpp"
#include "sim/system.hpp"
#include "sit/tree_checker.hpp"
#include "trace/trace_file.hpp"
#include "trace/workloads.hpp"

using namespace steins;

namespace {

struct Options {
  std::string scheme = "steins";
  std::string mode = "gc";
  std::string workload = "phash";
  std::string trace_path;
  std::string dump_trace;
  std::uint64_t accesses = 100'000;
  std::uint64_t warmup = 10'000;
  std::size_t mcache_kb = 256;
  std::uint64_t capacity_mb = 16 * 1024;
  std::uint64_t seed = 1;
  std::uint64_t nested_crash_boundary = 0;  // 0 = off (DESIGN.md §17)
  bool nested_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;
  bool crash = false;
  bool audit = false;
  bool list = false;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_sim - secure NVM simulator (Steins reproduction)\n\n"
      "  --scheme <wb|asit|star|steins|scue>  scheme to run (default steins)\n"
      "  --mode <gc|sc>                   counter mode (default gc)\n"
      "  --workload <name>                built-in workload (default phash)\n"
      "  --trace <file>                   replay a trace file instead\n"
      "  --dump-trace <file>              save the generated trace and exit\n"
      "  --accesses <n> --warmup <n>      trace sizing (default 100000/10000)\n"
      "  --mcache-kb <n>                  metadata cache size (default 256)\n"
      "  --capacity-mb <n>                NVM capacity (default 16384)\n"
      "  --seed <n>                       workload seed (default 1)\n"
      "  --crypto-backend <ref|ttable|hw|auto>\n"
      "                                   crypto backend (default: auto; or\n"
      "                                   STEINS_CRYPTO_BACKEND). Bit-identical;\n"
      "                                   affects host wall-clock only\n"
      "  --crash                          crash + recover after the run\n"
      "  --nested-crash <b[,rearm]>       with --crash: crash the recovery\n"
      "                                   itself at persist boundary b (1-based)\n"
      "                                   and re-enter it; ',rearm' re-arms the\n"
      "                                   crash on every retry\n"
      "  --max-recovery-attempts <n>      retry budget for crashed recoveries\n"
      "                                   (default 8)\n"
      "  --audit                          verify the whole persisted tree\n"
      "  --list                           list built-in workloads\n");
}

bool parse(int argc, char** argv, Options* opt) {
  cli::ArgParser p(argc, argv);
  while (p.next()) {
    if (p.is("--scheme")) {
      opt->scheme = p.str();
    } else if (p.is("--mode")) {
      opt->mode = p.str();
    } else if (p.is("--workload")) {
      opt->workload = p.str();
    } else if (p.is("--trace")) {
      opt->trace_path = p.str();
    } else if (p.is("--dump-trace")) {
      opt->dump_trace = p.str();
    } else if (p.is("--accesses")) {
      opt->accesses = p.u64();
    } else if (p.is("--warmup")) {
      opt->warmup = p.u64();
    } else if (p.is("--mcache-kb")) {
      opt->mcache_kb = static_cast<std::size_t>(p.u64());
    } else if (p.is("--capacity-mb")) {
      opt->capacity_mb = p.u64();
    } else if (p.is("--seed")) {
      opt->seed = p.u64();
    } else if (p.is("--crypto-backend")) {
      const std::string name = p.str();
      if (!p.failed() && !cli::apply_crypto_backend(name)) return false;
    } else if (p.is("--crash")) {
      opt->crash = true;
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
    } else if (p.is("--audit")) {
      opt->audit = true;
    } else if (p.is("--list")) {
      opt->list = true;
    } else if (p.is("--help", "-h")) {
      opt->help = true;
    } else {
      p.unknown();
    }
  }
  return !p.failed();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage();
    return 0;
  }
  // Cheap (<1 ms) and catches a miscompiled or misdetected crypto backend
  // before it can silently skew a whole run.
  if (std::string detail; !crypto::crypto_self_check(&detail)) {
    std::fprintf(stderr, "crypto self-check failed: %s\n", detail.c_str());
    return 1;
  }
  if (opt.list) {
    std::printf("built-in workloads:\n");
    for (const auto& name : workload_names()) std::printf("  %s\n", name.c_str());
    std::printf("KV profiles (YCSB-shaped; see also tools/steins_kv):\n");
    for (const auto& name : kv_workload_names()) std::printf("  %s\n", name.c_str());
    return 0;
  }

  try {
    std::unique_ptr<TraceSource> trace;
    if (!opt.trace_path.empty()) {
      trace = std::make_unique<VectorTrace>(read_trace_file(opt.trace_path));
      std::printf("replaying %s\n", opt.trace_path.c_str());
    } else {
      trace = make_workload(opt.workload, opt.accesses + opt.warmup, opt.seed);
    }

    if (!opt.dump_trace.empty()) {
      const auto accesses = collect_trace(*trace);
      if (!write_trace_file(opt.dump_trace, accesses)) {
        std::fprintf(stderr, "cannot write %s\n", opt.dump_trace.c_str());
        return 1;
      }
      std::printf("wrote %zu accesses to %s\n", accesses.size(), opt.dump_trace.c_str());
      return 0;
    }

    SystemConfig cfg = default_config();
    cfg.counter_mode = (opt.mode == "sc") ? CounterMode::kSplit : CounterMode::kGeneral;
    cfg.secure.metadata_cache.size_bytes = opt.mcache_kb * 1024;
    cfg.nvm.capacity_bytes = opt.capacity_mb << 20;
    const auto scheme_opt = cli::parse_scheme(opt.scheme);
    if (!scheme_opt.has_value()) {
      std::fprintf(stderr, "unknown scheme: %s (try --help)\n", opt.scheme.c_str());
      return 2;
    }
    const Scheme scheme = *scheme_opt;

    System sys(cfg, scheme);
    std::printf("running %s (%s) on '%s'...\n", opt.scheme.c_str(), opt.mode.c_str(),
                opt.trace_path.empty() ? opt.workload.c_str() : opt.trace_path.c_str());
    const RunStats s = sys.run(*trace, opt.trace_path.empty() ? opt.warmup : 0);

    std::printf("\nexecution\n");
    std::printf("  cycles               %llu (%.3f ms simulated)\n",
                static_cast<unsigned long long>(s.cycles), s.seconds(cfg) * 1e3);
    std::printf("  instructions         %llu\n", static_cast<unsigned long long>(s.instructions));
    std::printf("  accesses             %llu\n", static_cast<unsigned long long>(s.accesses));
    std::printf("memory\n");
    std::printf("  read latency         %.0f cycles mean (p50 %.0f, p99 %.0f)\n",
                s.read_latency_cycles, s.read_latency_p50, s.read_latency_p99);
    std::printf("  write latency        %.0f cycles mean (p50 %.0f, p99 %.0f)\n",
                s.write_latency_cycles, s.write_latency_p50, s.write_latency_p99);
    std::printf("  NVM reads/writes     %llu / %llu\n",
                static_cast<unsigned long long>(s.mem.nvm_reads()),
                static_cast<unsigned long long>(s.mem.nvm_writes()));
    std::printf("  metadata cache hit   %.1f%%\n", s.mcache_hit_rate * 100.0);
    std::printf("  hash / AES ops       %llu / %llu\n",
                static_cast<unsigned long long>(s.mem.hash_ops),
                static_cast<unsigned long long>(s.mem.aes_ops));
    std::printf("  energy               %.1f uJ\n", s.energy_nj / 1000.0);

    if (opt.crash) {
      std::printf("\ncrash + recovery\n");
      FaultInjector injector(FaultPlan::derive(FaultClass::kNone, opt.seed, 0));
      if (opt.nested_crash_boundary != 0) {
        injector.arm_recovery_crash(opt.nested_crash_boundary, opt.nested_crash_rearm);
        sys.set_fault_injector(&injector);
      }
      sys.set_recovery_policy(opt.retry_policy);
      const RecoveryResult r = sys.crash_and_recover();
      sys.set_fault_injector(nullptr);
      if (!r.supported) {
        std::printf("  recovery unsupported by scheme '%s'\n", opt.scheme.c_str());
      } else if (r.attack_detected) {
        std::printf("  ATTACK DETECTED: %s\n", r.attack_detail.c_str());
        return 1;
      } else if (r.recovery_gave_up) {
        std::printf("  UNRECOVERABLE: %s\n", r.status.message().c_str());
        return 1;
      } else {
        std::printf("  recovered %llu nodes in %.4f s (%llu reads, %llu writes)\n",
                    static_cast<unsigned long long>(r.nodes_recovered), r.seconds,
                    static_cast<unsigned long long>(r.nvm_reads),
                    static_cast<unsigned long long>(r.nvm_writes));
        if (r.attempts.size() > 1) {
          std::printf("  converged after %zu recovery attempts:\n", r.attempts.size());
          for (std::size_t i = 0; i < r.attempts.size(); ++i) {
            const RecoveryAttempt& a = r.attempts[i];
            if (a.crashed) {
              std::printf("    attempt %zu: crashed at boundary %llu (%s), "
                          "%.4f s, cursor %llu\n",
                          i + 1, static_cast<unsigned long long>(a.crash_boundary),
                          a.crash_stage.c_str(), a.seconds,
                          static_cast<unsigned long long>(a.resume_cursor));
            } else {
              std::printf("    attempt %zu: converged, %.4f s\n", i + 1, a.seconds);
            }
          }
        }
      }
    }

    if (opt.audit) {
      auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory());
      if (base == nullptr) {
        std::printf("audit unavailable for this scheme\n");
      } else {
        base->flush_all_metadata();
        const TreeCheckReport report = check_tree(*base);
        std::printf("\ntree audit: %llu nodes checked, %llu persisted, %zu issue(s)\n",
                    static_cast<unsigned long long>(report.nodes_checked),
                    static_cast<unsigned long long>(report.nodes_persisted),
                    report.issues.size());
        for (const auto& issue : report.issues) {
          std::printf("  L%u i%llu: %s\n", issue.node.level,
                      static_cast<unsigned long long>(issue.node.index), issue.what.c_str());
        }
        if (!report.ok()) return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
