// Fault-campaign bench: the full (scheme x fault class) verdict matrix as
// a recordable JSON artifact.
//
// Positional argv[1] (or STEINS_ACCESSES) sets the trial count, STEINS_SEED
// overrides the campaign seed, and --jobs/--json/--verbose follow the other
// benches. Exit status is nonzero on any silent-corruption verdict so CI
// can gate on the artifact it uploads.
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "fault/campaign.hpp"

using namespace steins;

int main(int argc, char** argv) {
  bench::BenchOptions opt = bench::parse_options(argc, argv);

  CampaignOptions campaign;
  // parse_options() sizes benches in accesses; here one "access" is one trial.
  campaign.trials = opt.accesses == 200'000 ? 200 : opt.accesses;
  campaign.seed = 42;
  if (const char* env = std::getenv("STEINS_SEED")) {
    campaign.seed = std::strtoull(env, nullptr, 10);
  }
  campaign.jobs = opt.jobs;
  if (campaign.trials == 0) {
    std::fprintf(stderr, "error: a 0-trial campaign would report vacuous success\n");
    return 2;
  }

  std::printf("fault campaign: %llu trials, seed %llu, %u job%s\n\n",
              static_cast<unsigned long long>(campaign.trials),
              static_cast<unsigned long long>(campaign.seed), campaign.jobs,
              campaign.jobs == 1 ? "" : "s");
  const CampaignResult result = run_fault_campaign(campaign);
  result.print(opt.verbose);

  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    const std::string json = result.to_json();
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "error writing JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("wrote JSON results to %s\n", opt.json_path.c_str());
  }

  const std::uint64_t silent = result.totals()[Verdict::kSilent];
  if (silent > 0) {
    std::fprintf(stderr, "\nFAIL: %llu silent-corruption verdict(s)\n",
                 static_cast<unsigned long long>(silent));
    return 1;
  }
  return 0;
}
