#include "kv/store_crash.hpp"

#include <stdexcept>

#include "common/thread_pool.hpp"

namespace steins::kv::store_crash {

Script make_script(const StoreCrashOptions& opt, std::size_t max_value_bytes,
                   std::uint64_t salt) {
  if (opt.value_bytes > max_value_bytes) {
    throw std::invalid_argument("crash harness value_bytes exceeds the store's " +
                                std::to_string(max_value_bytes) + "-byte limit");
  }
  Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + salt);
  Script script;
  script.reserve(opt.ops);
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const std::uint64_t key = rng.below(opt.keys);
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      std::string value = "v";
      value += std::to_string(i);
      value += 'k';
      value += std::to_string(key);
      if (value.size() < opt.value_bytes) value.resize(opt.value_bytes, '.');
      script.push_back({ScriptOp::Kind::kPut, key, std::move(value)});
    } else {
      script.push_back({roll < 8 ? ScriptOp::Kind::kErase : ScriptOp::Kind::kGet, key, {}});
    }
  }
  return script;
}

std::optional<RecoveryResult> crash_and_classify(
    System& sys, Scheme scheme, const StoreCrashOptions& opt, std::uint64_t crash_at,
    const AdversarySnapshot& snap, bool engine_fault, StoreCrashReport* report) {
  // The injector tears the crash drain and flips bits after the ADR
  // flush, as in the fault campaigns; the adversary lands after both.
  const bool hw_faulted = opt.fault_class != FaultClass::kNone;
  report->faulted = hw_faulted || engine_fault || opt.adversary.has_value();
  FaultInjector injector(FaultPlan::derive(opt.fault_class, opt.fault_seed, crash_at));
  if (opt.recovery_crash_boundary != 0) {
    injector.arm_recovery_crash(opt.recovery_crash_boundary, opt.recovery_crash_rearm);
  }
  if (hw_faulted || opt.recovery_crash_boundary != 0) sys.set_fault_injector(&injector);
  sys.set_recovery_policy(opt.retry_policy);

  RecoveryResult r;
  try {
    r = sys.crash_and_recover([&](SecureMemory& m) {
      auto* base = dynamic_cast<SecureMemoryBase*>(&m);
      if (!opt.adversary.has_value() || base == nullptr) return;
      const AdversaryPlan plan{*opt.adversary, opt.adversary_seed};
      report->adversary_injected =
          apply_adversary_post_crash(*base, scheme, plan, snap, &report->adversary_events);
    });
  } catch (const IntegrityViolation& e) {
    sys.set_fault_injector(nullptr);
    report->fault_detected = true;
    report->detail = std::string("recovery raised: ") + e.what();
    return std::nullopt;
  }
  sys.set_fault_injector(nullptr);
  if (classify_recovery(r, report)) return std::nullopt;
  return r;
}

std::string diff_detail(const Model& model, const Model& recovered) {
  for (const auto& [key, value] : model) {
    const auto it = recovered.find(key);
    if (it == recovered.end()) {
      return "committed key " + std::to_string(key) + " missing after recovery";
    }
    if (it->second != value) {
      return "committed key " + std::to_string(key) + " has wrong value after recovery";
    }
  }
  for (const auto& [key, value] : recovered) {
    if (!model.contains(key)) {
      return "uncommitted key " + std::to_string(key) + " present after recovery";
    }
  }
  return {};
}

bool served_only_committed(const Model& live, const Model& model, std::string* detail) {
  for (const auto& [key, value] : live) {
    const auto want = model.find(key);
    if (want == model.end() || want->second != value) {
      *detail = "uncommitted key " + std::to_string(key) + " served after salvage";
      return false;
    }
  }
  return true;
}

StoreCrashMatrix sweep(const DryRun& dry, Scheme scheme, std::uint64_t stride, unsigned jobs,
                       const std::function<StoreCrashReport(std::uint64_t)>& trial) {
  STEINS_CHECK(stride > 0, "matrix stride must be positive");
  StoreCrashMatrix matrix;
  if (!dry.detail.empty()) {
    matrix.counts.add(Verdict::kSilent);
    matrix.failures.emplace_back(0, dry.detail);
    return matrix;
  }
  matrix.total_persists = dry.total_persists;
  std::vector<std::uint64_t> boundaries;
  for (std::uint64_t b = 0; b <= dry.total_persists; b += stride) boundaries.push_back(b);
  if (boundaries.back() != dry.total_persists) boundaries.push_back(dry.total_persists);

  std::vector<StoreCrashReport> reports(boundaries.size());
  ThreadPool::run_indexed(jobs, boundaries.size(),
                          [&](std::size_t i) { reports[i] = trial(boundaries[i]); });
  // Deterministic tally merge in boundary order.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ++matrix.stage_trials[reports[i].crash_stage];
    if (!reports[i].pass(scheme)) matrix.failures.emplace_back(boundaries[i], reports[i].detail);
    matrix.counts.add(reports[i].verdict(scheme));
  }
  return matrix;
}

}  // namespace steins::kv::store_crash
