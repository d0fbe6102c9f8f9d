// Recovery-storm bench: multi-cycle crash/recovery trials with nested
// recovery crashes, recorded as a per-(scheme, cycle-count) JSON artifact.
//
// Every trial runs K workload/crash/recover cycles on one instance
// (run_fault_trial with FaultTrialOptions::cycles = K); each cycle's
// recovery is itself crashed at a trial-varied persist boundary (odd
// trials re-arm the crash on every retry, so convergence relies on the
// exponential persist-budget backoff) and re-entered through the bounded
// retry loop. The artifact records the attempts-to-converge distribution
// and the modeled recovery-time p50/p99 per cell.
//
// Positional argv[1] sets the trials per cell (default 8), the campaign
// seed is fixed at 42, and --jobs/--json/--verbose follow the other
// benches. Exit status is nonzero
// on any silent-corruption or recovery-crash-unrecoverable verdict so CI
// can gate on the artifact it uploads.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/campaign.hpp"

using namespace steins;

namespace {

// Between-cycle fault classes: a pure-power-loss storm plus the two
// classes whose damage recovery must absorb rather than merely detect.
constexpr FaultClass kStormClasses[] = {FaultClass::kNone, FaultClass::kTornWrite,
                                        FaultClass::kAdrLoss};
constexpr std::uint64_t kCycleCounts[] = {1, 2, 4};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

struct Cell {
  SchemeSpec spec;
  std::uint64_t cycles = 1;
  std::vector<TrialOutcome> outcomes;

  VerdictCounts verdicts() const {
    VerdictCounts out;
    for (const TrialOutcome& o : outcomes) out.add(o.verdict);
    return out;
  }
  std::vector<double> all_attempts() const {
    std::vector<double> out;
    for (const TrialOutcome& o : outcomes) {
      for (const std::uint64_t a : o.attempts_per_cycle) {
        out.push_back(static_cast<double>(a));
      }
    }
    return out;
  }
  std::vector<double> all_seconds() const {
    std::vector<double> out;
    for (const TrialOutcome& o : outcomes) {
      for (const double s : o.recovery_seconds_per_cycle) out.push_back(s);
    }
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  // parse_options() sizes benches in accesses; here one "access" is one
  // trial per (scheme, cycle-count) cell.
  const bench::BenchOptions opt = bench::parse_options(argc, argv, /*default_accesses=*/8);
  const std::uint64_t trials = opt.accesses;
  constexpr std::uint64_t seed = 42;
  if (trials == 0) {
    std::fprintf(stderr, "error: a 0-trial storm would report vacuous success\n");
    return 2;
  }

  FaultTrialOptions workload;
  workload.ops = 192;
  workload.footprint_blocks = 512;
  workload.capacity_mb = 8;
  workload.mcache_kb = 16;
  // Re-armed trials must out-double the largest boundary census (SCUE's
  // full-tree rebuild persists thousands of nodes at this capacity).
  workload.retry_policy.max_recovery_attempts = 24;

  std::vector<Cell> cells;
  for (const SchemeSpec& spec : campaign_schemes(CounterMode::kGeneral)) {
    for (const std::uint64_t cycles : kCycleCounts) {
      Cell c;
      c.spec = spec;
      c.cycles = cycles;
      c.outcomes.resize(trials);
      cells.push_back(std::move(c));
    }
  }

  std::printf("recovery storm: %llu trials x %zu cells (schemes x cycle counts), "
              "seed %llu, %u job%s\n\n",
              static_cast<unsigned long long>(trials), cells.size(),
              static_cast<unsigned long long>(seed), opt.jobs,
              opt.jobs == 1 ? "" : "s");

  // Flatten (cell, trial) across the pool; every slot is a pure function
  // of (seed, scheme, cycles, trial), so the artifact is bit-identical for
  // any --jobs value.
  ThreadPool::run_indexed(opt.jobs, cells.size() * trials, [&](std::size_t flat) {
    Cell& cell = cells[flat / trials];
    const std::uint64_t trial = flat % trials;
    FaultTrialOptions w = workload;
    w.cycles = cell.cycles;
    w.recovery_crash_boundary = 1 + trial % 7;
    w.recovery_crash_rearm = trial % 2 == 1;
    const FaultClass cls = kStormClasses[trial % std::size(kStormClasses)];
    cell.outcomes[trial] = run_fault_trial(cell.spec, cls, seed, trial, w);
  });

  VerdictCounts all;
  std::string cells_json;
  std::printf("%-12s %6s %10s %8s %8s %12s %12s %12s\n", "scheme", "cycles",
              "recovered", "retried", "other", "attempts-p50", "attempts-max",
              "rec-p99-ms");
  for (const Cell& cell : cells) {
    const VerdictCounts v = cell.verdicts();
    all += v;
    const std::vector<double> attempts = cell.all_attempts();
    const std::vector<double> seconds = cell.all_seconds();
    const double a_p50 = percentile(attempts, 50);
    const double a_max = attempts.empty() ? 0.0
                                          : *std::max_element(attempts.begin(),
                                                              attempts.end());
    const std::uint64_t recovered = v[Verdict::kRecovered];
    const std::uint64_t retried = v[Verdict::kRecoveredAfterRetry];
    const std::uint64_t other = v.total() - v.converged();
    std::printf("%-12s %6llu %10llu %8llu %8llu %12.1f %12.0f %12.4f\n",
                cell.spec.label.c_str(), static_cast<unsigned long long>(cell.cycles),
                static_cast<unsigned long long>(recovered),
                static_cast<unsigned long long>(retried),
                static_cast<unsigned long long>(other), a_p50, a_max,
                percentile(seconds, 99) * 1e3);
    if (opt.verbose) {
      for (const TrialOutcome& o : cell.outcomes) {
        std::printf("  trial %llu -> %s (%s), %llu cycle(s)\n",
                    static_cast<unsigned long long>(o.trial),
                    verdict_name(o.verdict), o.detail.c_str(),
                    static_cast<unsigned long long>(o.cycles_run));
      }
    }

    // Attempts-to-converge histogram for the artifact.
    std::map<std::uint64_t, std::uint64_t> hist;
    for (const double a : attempts) ++hist[static_cast<std::uint64_t>(a)];
    std::string hist_json = "[";
    for (const auto& [a, n] : hist) {
      if (hist_json.size() > 1) hist_json += ", ";
      hist_json += '[';
      hist_json += std::to_string(a) + ", " + std::to_string(n) + "]";
    }
    hist_json += "]";

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"scheme\": \"%s\", \"cycles\": %llu, \"trials\": %zu,\n"
                  "   \"verdicts\": {\"recovered\": %llu, \"recovered_after_retry\": "
                  "%llu, \"salvaged\": %llu, \"detected\": %llu, \"silent\": %llu, "
                  "\"unrecoverable\": %llu},\n"
                  "   \"attempts\": {\"p50\": %.3f, \"p99\": %.3f, \"max\": %.0f, "
                  "\"hist\": %s},\n"
                  "   \"recovery_seconds\": {\"p50\": %.9f, \"p99\": %.9f}}",
                  cell.spec.label.c_str(),
                  static_cast<unsigned long long>(cell.cycles), cell.outcomes.size(),
                  static_cast<unsigned long long>(recovered),
                  static_cast<unsigned long long>(retried),
                  static_cast<unsigned long long>(v[Verdict::kSalvaged]),
                  static_cast<unsigned long long>(v[Verdict::kDetected]),
                  static_cast<unsigned long long>(v[Verdict::kSilent]),
                  static_cast<unsigned long long>(v[Verdict::kUnrecoverable]),
                  a_p50, percentile(attempts, 99), a_max, hist_json.c_str(),
                  percentile(seconds, 50), percentile(seconds, 99));
    if (!cells_json.empty()) cells_json += ",\n  ";
    cells_json += buf;
  }

  if (!opt.json_path.empty()) {
    std::string json = "{\"trials_per_cell\": " + std::to_string(trials) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"max_recovery_attempts\": " +
                       std::to_string(workload.retry_policy.max_recovery_attempts) +
                       ",\n \"cells\": [\n  " + cells_json + "\n]}\n";
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    if (std::fclose(f) != 0 || !wrote) {
      std::fprintf(stderr, "error writing JSON output %s: %s\n", opt.json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::printf("\nwrote JSON results to %s\n", opt.json_path.c_str());
  }

  if (!all.clean()) {
    std::fprintf(stderr,
                 "\nFAIL: %llu silent-corruption + %llu unrecoverable verdict(s)\n",
                 static_cast<unsigned long long>(all[Verdict::kSilent]),
                 static_cast<unsigned long long>(all[Verdict::kUnrecoverable]));
    return 1;
  }
  return 0;
}
