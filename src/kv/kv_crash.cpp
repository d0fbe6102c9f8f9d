#include "kv/kv_crash.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "kv/kv_store.hpp"
#include "sim/system.hpp"

namespace steins::kv {

namespace {

/// Internal crash signal thrown from the persist hook.
struct CrashNow {};

struct ScriptOp {
  enum class Kind { kPut, kErase, kGet } kind;
  std::uint64_t key;
  std::string value;  // for puts
};

/// The deterministic op script: put-heavy with erases and reads mixed in,
/// hammering a small key universe so updates and tombstone reuse occur.
std::vector<ScriptOp> make_script(const KvCrashOptions& opt) {
  Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<ScriptOp> script;
  script.reserve(opt.ops);
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const std::uint64_t key = rng.below(opt.keys);
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      std::string value = "v" + std::to_string(i) + "k" + std::to_string(key);
      if (value.size() < opt.value_bytes) value.resize(opt.value_bytes, '.');
      value.resize(std::min(value.size(), kMaxValueBytes));
      script.push_back({ScriptOp::Kind::kPut, key, std::move(value)});
    } else if (roll < 8) {
      script.push_back({ScriptOp::Kind::kErase, key, {}});
    } else {
      script.push_back({ScriptOp::Kind::kGet, key, {}});
    }
  }
  return script;
}

/// Run the script to completion (or until the hook throws CrashNow),
/// keeping the model in sync with *returned* operations only. Returns
/// false with `detail` set if a read disagreed with the model mid-run.
bool execute_script(KvStore& kv, const std::vector<ScriptOp>& script,
                    std::map<std::uint64_t, std::string>& model, std::string* detail) {
  for (const ScriptOp& op : script) {
    switch (op.kind) {
      case ScriptOp::Kind::kPut:
        kv.put(op.key, op.value);
        model[op.key] = op.value;
        break;
      case ScriptOp::Kind::kErase:
        kv.erase(op.key);
        model.erase(op.key);
        break;
      case ScriptOp::Kind::kGet: {
        const std::optional<std::string> got = kv.get(op.key);
        const auto want = model.find(op.key);
        const bool match = want == model.end() ? !got.has_value()
                                               : (got.has_value() && *got == want->second);
        if (!match) {
          *detail = "runtime get mismatch for key " + std::to_string(op.key);
          return false;
        }
        break;
      }
    }
  }
  return true;
}

std::string diff_detail(const std::map<std::uint64_t, std::string>& model,
                        const std::map<std::uint64_t, std::string>& recovered) {
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
    (void)value;
    if (!model.contains(key)) {
      return "uncommitted key " + std::to_string(key) + " present after recovery";
    }
  }
  return {};
}

}  // namespace

KvCrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                      const KvCrashOptions& opt) {
  KvCrashReport report;
  KvLayout layout;
  layout.slots = opt.slots;
  const std::vector<ScriptOp> script = make_script(opt);

  // Pass 1: count persist barriers in the unperturbed script so the crash
  // boundary can be chosen uniformly over all of them (0 = before the
  // first persist, total = after the last).
  {
    System sys(base_cfg, scheme);
    KvStore kv(sys, layout);
    std::map<std::uint64_t, std::string> model;
    std::string detail;
    if (!execute_script(kv, script, model, &detail)) {
      report.detail = "dry run failed: " + detail;
      return report;
    }
    report.total_persists = kv.persists();
  }

  if (opt.crash_at == KvCrashOptions::kRandomBoundary) {
    Xoshiro256 boundary_rng(opt.seed * 0x2545f4914f6cdd1dULL + 7);
    report.crash_at = boundary_rng.below(report.total_persists + 1);
  } else {
    report.crash_at = std::min(opt.crash_at, report.total_persists);
  }

  // Pass 2: replay with the crash injected before barrier `crash_at`. An
  // armed adversary records the persisted image (after a metadata flush,
  // so there is acknowledged-durable state to replay around) at the
  // midpoint barrier.
  System sys(base_cfg, scheme);
  KvStore kv(sys, layout);
  AdversarySnapshot snap;
  kv.set_persist_hook([&](const char*, std::uint64_t index) {
    if (opt.adversary.has_value()) {
      const std::uint64_t record_at = report.crash_at / 2;
      const std::uint64_t durable_at = (record_at + report.crash_at + 1) / 2;
      if (index == record_at) {
        if (auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory())) {
          base->flush_all_metadata();
          snap = snapshot_device(*base);
        }
      } else if (index == durable_at) {
        // A later durability point: the metadata persisted here is
        // acknowledged-durable state the adversary replays around. Without
        // it the cached-metadata window would leave rollbacks nothing
        // persisted to revert (the same vacuity the trial harness avoids
        // with its checkpoint flush).
        if (auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory())) {
          base->flush_all_metadata();
        }
      }
    }
    if (index == report.crash_at) throw CrashNow{};
  });
  std::map<std::uint64_t, std::string> model;
  std::string detail;
  try {
    if (!execute_script(kv, script, model, &detail)) {
      report.detail = detail;
      return report;
    }
  } catch (const CrashNow&) {
    // Power failed mid-operation; fall through to recovery.
  }
  report.committed_keys = model.size();

  // Fold the requested hardware fault into the crash. The injector hooks
  // the write queue's crash drain and flips bits after the scheme's ADR
  // flush, exactly as in the fault campaigns. The adversary's mutation
  // lands after the drain, before recovery.
  const bool hw_faulted = opt.fault_class != FaultClass::kNone;
  report.faulted = hw_faulted || opt.adversary.has_value();
  FaultInjector injector(FaultPlan::derive(opt.fault_class, opt.fault_seed, report.crash_at));
  if (opt.recovery_crash_boundary != 0) {
    injector.arm_recovery_crash(opt.recovery_crash_boundary, opt.recovery_crash_rearm);
  }
  if (hw_faulted || opt.recovery_crash_boundary != 0) sys.set_fault_injector(&injector);
  sys.set_recovery_policy(opt.retry_policy);

  RecoveryResult r;
  try {
    r = sys.crash_and_recover([&](SecureMemory& m) {
      if (!opt.adversary.has_value()) return;
      auto* base = dynamic_cast<SecureMemoryBase*>(&m);
      if (base == nullptr) return;
      const AdversaryPlan plan{*opt.adversary, opt.adversary_seed};
      report.adversary_injected = apply_adversary_post_crash(
          *base, scheme, plan, snap, &report.adversary_events);
    });
  } catch (const IntegrityViolation& e) {
    sys.set_fault_injector(nullptr);
    report.fault_detected = true;
    report.detail = std::string("recovery raised: ") + e.what();
    return report;
  }
  sys.set_fault_injector(nullptr);
  if (classify_recovery(r, &report)) return report;

  // Reboot: reconcile the application-visible image with NVM, reopen the
  // store over the surviving region, and diff against the model.
  try {
    sys.resync_truth_after_crash();
    KvStore reopened(sys, layout);
    reopened.apply_recovery_report(r);
    if (!report.salvaged) {
      try {
        const std::map<std::uint64_t, std::string> recovered = reopened.dump();
        report.detail = diff_detail(model, recovered);
        report.verified = report.detail.empty();
        return report;
      } catch (const StatusError& e) {
        if (!is_unavailable(e.code())) throw;
        // A media loss the scheme's recovery pass never scans (ASIT/STAR
        // rebuild from tracking metadata only) surfaces lazily as a typed
        // error on first read. That is still degraded service, not a
        // failure: fall through to the salvage diff.
        report.salvaged = true;
      }
    }
    // Salvage diff: every committed key must either read back exactly or
    // fail with a *typed* unavailable error; a silent wrong/missing value
    // still fails. Keys the store can read that the model never committed
    // fail too (an uncommitted record became visible).
    if (!salvage_committed_keys(reopened, model, &report.keys_unavailable, &report.detail)) {
      return report;
    }
    const KvStore::DegradedDump dump = reopened.dump_degraded();
    for (const auto& [key, value] : dump.live) {
      const auto want = model.find(key);
      if (want == model.end() || want->second != value) {
        report.detail = "uncommitted key " + std::to_string(key) +
                        " served after salvage";
        return report;
      }
    }
    report.degraded_verified = true;
  } catch (const IntegrityViolation& e) {
    report.fault_detected = report.faulted;
    report.detail = std::string("reopen raised: ") + e.what();
  } catch (const StatusError& e) {
    report.detail = std::string("reopen failed: ") + e.what();
  } catch (const KvCorruption& e) {
    report.detail = e.what();
  }
  return report;
}

}  // namespace steins::kv
