// steins_fault: deterministic fault-injection campaign runner.
//
//   steins_fault --trials 1000 --seed 42 --jobs 8
//   steins_fault --trials 1000 --seed 42 --trial 137 --verbose
//   steins_fault --schemes steins,scue --classes torn,adr --json fc.json
//
// Runs N seeded trials per scheme: a workload phase, a checkpoint flush, a
// dirty burst, then a crash with injected faults (torn/dropped/reordered
// persists, ADR loss, or region-targeted bit flips), recovery, and a full
// audit of every written block. Prints the per-(scheme, class) verdict
// matrix detected/recovered/salvaged/silent-corruption. Every trial is a
// pure function of (--seed, trial index): the matrix is bit-identical for
// any --jobs value, and --trial K reruns exactly one trial for debugging.
// Exit status is nonzero if any silent corruption was observed; 2 for
// usage errors (including --trials 0, which would report vacuous success).
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "fault/campaign.hpp"

using namespace steins;

namespace {

struct Options {
  CampaignOptions campaign;
  std::string schemes;  // csv; empty = default recoverable set
  std::string classes;  // csv; empty = all
  std::string mode = "gc";
  std::string json_path;
  bool verbose = false;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_fault - fault-injection campaigns over the secure NVM schemes\n\n"
      "  --trials <n>        seeded trials per scheme (default 100; must be\n"
      "                      >= 1 unless --trial selects a single one)\n"
      "  --seed <n>          campaign seed (default 42)\n"
      "  --jobs <n>          worker threads; results are bit-identical for\n"
      "                      any value (default 1)\n"
      "  --schemes <list>    comma-separated wb|asit|star|scue|steins\n"
      "                      (default: asit,star,scue,steins)\n"
      "  --mode <gc|sc>      counter mode (default gc; sc restricts the\n"
      "                      default scheme set to steins)\n"
      "  --classes <list>    comma-separated fault classes (default: all):\n"
      "                      torn-write dropped-persist reordered-persist\n"
      "                      adr-loss flip-data flip-counter flip-node\n"
      "                      flip-mac flip-record correctable-flip\n"
      "  --trial <k>         run only trial k (seed-exact reproduction)\n"
      "  --ops <n>           phase-1 accesses per trial (default 384)\n"
      "  --footprint <n>     workload footprint in blocks (default 2048)\n"
      "  --capacity-mb <n>   per-trial NVM capacity (default 16)\n"
      "  --mcache-kb <n>     metadata cache size (default 16)\n"
      "  --nested-crash <b[,rearm]>  crash the recovery itself at persist\n"
      "                      boundary b (1-based) and re-enter it through the\n"
      "                      bounded retry loop; append ',rearm' to re-arm the\n"
      "                      crash every retry (backoff-only progress). Adds\n"
      "                      the recovered-after-retry / unrecoverable verdicts\n"
      "  --max-recovery-attempts <n>  retry budget for crashed recoveries\n"
      "                      (default 8)\n"
      "  --json <file>       write the verdict matrix as JSON\n"
      "  --crypto-backend <ref|ttable|hw|auto>  crypto backend (bit-identical;\n"
      "                      host wall-clock only; or STEINS_CRYPTO_BACKEND)\n"
      "  --verbose           per-trial verdicts + injected-fault logs\n");
}

bool parse(int argc, char** argv, Options* opt) {
  cli::ArgParser p(argc, argv);
  while (p.next()) {
    if (p.is("--trials")) {
      opt->campaign.trials = p.u64();
    } else if (p.is("--seed")) {
      opt->campaign.seed = p.u64();
    } else if (p.is("--jobs")) {
      opt->campaign.jobs = p.jobs();
    } else if (p.is("--schemes", "--scheme")) {
      opt->schemes = p.str();
    } else if (p.is("--mode")) {
      opt->mode = p.str();
    } else if (p.is("--classes", "--class")) {
      opt->classes = p.str();
    } else if (p.is("--trial")) {
      opt->campaign.only_trial = p.u64();
    } else if (p.is("--ops")) {
      opt->campaign.workload.ops = p.u64();
    } else if (p.is("--footprint")) {
      opt->campaign.workload.footprint_blocks = p.u64();
    } else if (p.is("--capacity-mb")) {
      opt->campaign.workload.capacity_mb = p.u64();
    } else if (p.is("--mcache-kb")) {
      opt->campaign.workload.mcache_kb = p.u64();
    } else if (p.is("--nested-crash")) {
      if (!cli::parse_nested_crash(p, &opt->campaign.workload.recovery_crash_boundary,
                                   &opt->campaign.workload.recovery_crash_rearm)) {
        return false;
      }
    } else if (p.is("--max-recovery-attempts")) {
      const std::uint64_t n = p.u64();
      if (p.failed()) return false;
      if (n == 0) {
        p.invalid("invalid --max-recovery-attempts: expected >= 1");
        return false;
      }
      opt->campaign.workload.retry_policy.max_recovery_attempts = n;
    } else if (p.is("--json")) {
      opt->json_path = p.str();
    } else if (p.is("--crypto-backend")) {
      const std::string name = p.str();
      if (!p.failed() && !cli::apply_crypto_backend(name)) return false;
    } else if (p.is("--verbose")) {
      opt->verbose = true;
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
  if (opt.campaign.trials == 0 && !opt.campaign.only_trial.has_value()) {
    std::fprintf(stderr,
                 "error: --trials 0 runs no trials and would report vacuous "
                 "success; pass --trials >= 1 or reproduce one with --trial\n");
    return 2;
  }

  CounterMode mode;
  if (opt.mode == "gc") {
    mode = CounterMode::kGeneral;
  } else if (opt.mode == "sc") {
    mode = CounterMode::kSplit;
  } else {
    std::fprintf(stderr, "unknown mode: %s (expected gc or sc)\n", opt.mode.c_str());
    return 2;
  }

  if (opt.schemes.empty()) {
    opt.campaign.schemes = campaign_schemes(mode);
  } else {
    for (const std::string& name : cli::split_csv(opt.schemes)) {
      const auto s = cli::parse_scheme(name);
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scheme: %s (try --help)\n", name.c_str());
        return 2;
      }
      opt.campaign.schemes.push_back({*s, mode, scheme_name(*s, mode)});
    }
  }
  for (const std::string& name : cli::split_csv(opt.classes)) {
    const auto cls = parse_fault_class(name);
    if (!cls.has_value()) {
      std::fprintf(stderr, "unknown fault class: %s (try --help)\n", name.c_str());
      return 2;
    }
    opt.campaign.classes.push_back(*cls);
  }

  try {
    std::printf("fault campaign: %llu trials, seed %llu, %u job%s, mode %s\n\n",
                static_cast<unsigned long long>(
                    opt.campaign.only_trial.has_value() ? 1 : opt.campaign.trials),
                static_cast<unsigned long long>(opt.campaign.seed), opt.campaign.jobs,
                opt.campaign.jobs == 1 ? "" : "s", opt.mode.c_str());
    const CampaignResult result = run_fault_campaign(opt.campaign);
    result.print(opt.verbose);

    if (!opt.json_path.empty()) {
      if (!cli::write_json_file(opt.json_path, result.to_json())) return 1;
      std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
    }

    const VerdictCounts all = result.totals();
    if (all[Verdict::kSilent] > 0) {
      std::fprintf(stderr, "\nFAIL: %llu silent-corruption verdict(s)\n",
                   static_cast<unsigned long long>(all[Verdict::kSilent]));
      return 1;
    }
    if (all[Verdict::kUnrecoverable] > 0) {
      std::fprintf(stderr, "\nFAIL: %llu unrecoverable recovery verdict(s)\n",
                   static_cast<unsigned long long>(all[Verdict::kUnrecoverable]));
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
