// steins_attack: adversarial scenario campaigns + endurance projection.
//
//   steins_attack --trials 1050 --seed 42 --jobs 4 --json BENCH_attack.json
//   steins_attack --scenarios subtree-rollback,torn-record --schemes steins
//   steins_attack --trials 1000 --trial 137 --verbose
//
// Runs N seeded trials per (scheme, scenario): a workload phase, a
// checkpoint flush at which the adversary snapshots every persisted line,
// a dirty burst, then a CLEAN crash with the scenario's mutation applied
// to the durable image (rollback/replay/forgery/tear), recovery, and a
// strict-window audit — every acknowledged write must read back at its
// latest version or a check must have fired. Verdicts carry detection
// latency (accesses from injection to detection) and blast radius
// (lines/subtrees/blocks quarantined). Every trial is a pure function of
// (--seed, trial index): bit-identical for any --jobs, and --trial K
// reruns exactly one trial.
//
// The accelerated wear campaign then runs once per selected scheme that
// can recover (all but WB), with the campaign seed, and projects
// wear-leveling / wear-out / spare-pool-exhaustion milestones to real
// device endurance and traffic. --json writes both as BENCH_attack.json's
// layout: {"attack": <verdict matrix>, "endurance": [<one report per scheme>]}.
//
// Exit status: 1 if any silent corruption (or endurance audit mismatch)
// was observed, 2 for usage errors.
#include <cstdio>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "fault/adversary.hpp"
#include "fault/endurance.hpp"

using namespace steins;

namespace {

struct Options {
  AttackCampaignOptions campaign;
  std::string schemes;    // csv; empty = attack_schemes()
  std::string scenarios;  // csv; empty = all
  std::string json_path;
  bool verbose = false;
  bool help = false;
};

void usage() {
  std::printf(
      "steins_attack - adversarial campaigns over the secure NVM schemes\n\n"
      "  --trials <n>        seeded trials per (scheme, scenario) column\n"
      "                      (default 100; >= 1 unless --trial is given)\n"
      "  --seed <n>          campaign seed (default 42)\n"
      "  --jobs <n>          worker threads; results are bit-identical for\n"
      "                      any value (default 1)\n"
      "  --schemes <list>    comma-separated wb|asit|star|scue|steins\n"
      "                      (default: wb,asit,star,scue,steins)\n"
      "  --scenarios <list>  comma-separated (default: all):\n"
      "                      node-rollback subtree-rollback nv-bypass-replay\n"
      "                      record-forgery torn-record data-replay wear-out\n"
      "  --trial <k>         run only trial k (seed-exact reproduction)\n"
      "  --ops <n>           phase-1 accesses per trial (default 384)\n"
      "  --footprint <n>     workload footprint in blocks (default 2048)\n"
      "  --capacity-mb <n>   per-trial NVM capacity (default 16)\n"
      "  --mcache-kb <n>     metadata cache size (default 16)\n"
      "  --nested-crash <b[,rearm]>  crash the recovery itself at persist\n"
      "                      boundary b (1-based); ',rearm' re-arms every retry\n"
      "  --max-recovery-attempts <n>  retry budget for crashed recoveries\n"
      "                      (default 8)\n"
      "  --json <file>       write the verdict matrix + endurance reports\n"
      "  --crypto-backend <ref|ttable|hw|auto>  crypto backend (bit-identical;\n"
      "                      host wall-clock only; or STEINS_CRYPTO_BACKEND)\n"
      "  --verbose           per-trial verdicts + adversary event logs\n");
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
    } else if (p.is("--scenarios", "--scenario")) {
      opt->scenarios = p.str();
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

  if (!opt.schemes.empty()) {
    for (const std::string& name : cli::split_csv(opt.schemes)) {
      const auto s = cli::parse_scheme(name);
      if (!s.has_value()) {
        std::fprintf(stderr, "unknown scheme: %s (try --help)\n", name.c_str());
        return 2;
      }
      opt.campaign.schemes.push_back(
          {*s, CounterMode::kGeneral, scheme_name(*s, CounterMode::kGeneral)});
    }
  }
  for (const std::string& name : cli::split_csv(opt.scenarios)) {
    const auto s = parse_adversary_scenario(name);
    if (!s.has_value()) {
      std::fprintf(stderr, "unknown scenario: %s (try --help)\n", name.c_str());
      return 2;
    }
    opt.campaign.scenarios.push_back(*s);
  }

  try {
    std::printf("attack campaign: %llu trials, seed %llu, %u job%s\n\n",
                static_cast<unsigned long long>(
                    opt.campaign.only_trial.has_value() ? 1 : opt.campaign.trials),
                static_cast<unsigned long long>(opt.campaign.seed),
                opt.campaign.jobs, opt.campaign.jobs == 1 ? "" : "s");
    const AttackCampaignResult result = run_attack_campaign(opt.campaign);
    result.print(opt.verbose);

    // Endurance projection for every selected scheme that can recover (WB
    // has no recovery pass to keep honest; the matrix covers its wear).
    bool endurance_failed = false;
    std::string endurance_json = "[";
    for (const SchemeSpec& spec : result.options.schemes) {
      if (spec.scheme == Scheme::kWriteBack) continue;
      EnduranceOptions eopts;
      eopts.scheme = spec.scheme;
      eopts.seed = opt.campaign.seed;
      const EnduranceReport rep = run_endurance_campaign(eopts);
      std::printf("\n%s %s\n", spec.label.c_str(), rep.to_string().c_str());
      endurance_json += (endurance_json.size() == 1 ? "\n " : ",\n ") + rep.to_json();
      if (rep.audit_mismatches > 0 || !rep.recovery_clean) endurance_failed = true;
    }
    endurance_json += "]";

    if (!opt.json_path.empty()) {
      const std::string json =
          "{\"attack\": " + result.to_json() + ",\n\"endurance\": " + endurance_json + "}\n";
      if (!cli::write_json_file(opt.json_path, json)) return 1;
      std::printf("\nwrote JSON results to %s\n", opt.json_path.c_str());
    }

    if (result.silent_total() > 0) {
      std::fprintf(stderr, "\nFAIL: %llu silent-corruption verdict(s)\n",
                   static_cast<unsigned long long>(result.silent_total()));
      return 1;
    }
    if (endurance_failed) {
      std::fprintf(stderr, "\nFAIL: endurance campaign audit mismatch or dirty recovery\n");
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
