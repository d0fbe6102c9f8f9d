#include "kv/lsm/lsm_crash.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/system.hpp"

namespace steins::lsm {

namespace {

/// Internal crash signal thrown from the persist hook.
struct CrashNow {};

struct ScriptOp {
  enum class Kind { kPut, kErase, kGet } kind;
  std::uint64_t key;
  std::string value;  // for puts
};

/// Deterministic put-heavy script over a small key universe (same shape
/// as the KV harness): updates, tombstones, and reads all occur, and the
/// small memtable/WAL geometry turns them into flushes and compactions.
std::vector<ScriptOp> make_script(const LsmCrashOptions& opt) {
  Xoshiro256 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<ScriptOp> script;
  script.reserve(opt.ops);
  for (std::uint64_t i = 0; i < opt.ops; ++i) {
    const std::uint64_t key = rng.below(opt.keys);
    const std::uint64_t roll = rng.below(10);
    if (roll < 6) {
      std::string value = "v" + std::to_string(i) + "k" + std::to_string(key);
      if (value.size() < opt.value_bytes) value.resize(opt.value_bytes, '.');
      script.push_back({ScriptOp::Kind::kPut, key, std::move(value)});
    } else if (roll < 8) {
      script.push_back({ScriptOp::Kind::kErase, key, {}});
    } else {
      script.push_back({ScriptOp::Kind::kGet, key, {}});
    }
  }
  return script;
}

/// Run the script; the model tracks *committed* operations only, via the
/// engine's commit hook (fired after a WAL record's last barrier), so it
/// stays exact even when a crash lands mid-operation.
bool execute_script(LsmStore& store, const std::vector<ScriptOp>& script,
                    std::map<std::uint64_t, std::string>& model,
                    std::string* detail) {
  store.set_commit_hook(
      [&model](std::uint64_t key, WalKind kind, const std::string& value) {
        if (kind == WalKind::kErase) {
          model.erase(key);
        } else {
          model[key] = value;
        }
      });
  for (const ScriptOp& op : script) {
    switch (op.kind) {
      case ScriptOp::Kind::kPut:
        store.put(op.key, op.value);
        break;
      case ScriptOp::Kind::kErase:
        store.erase(op.key);
        break;
      case ScriptOp::Kind::kGet: {
        const std::optional<std::string> got = store.get(op.key);
        const auto want = model.find(op.key);
        const bool match = want == model.end()
                               ? !got.has_value()
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

struct DryRun {
  std::uint64_t total_persists = 0;
  std::vector<std::string> stages;  // stage label of each barrier
  bool ok = false;
  std::string detail;
};

DryRun dry_run(const SystemConfig& base_cfg, Scheme scheme,
               const LsmCrashOptions& opt, const std::vector<ScriptOp>& script) {
  DryRun out;
  System sys(base_cfg, scheme);
  LsmStore store(sys, opt.layout, opt.engine);
  store.set_persist_hook([&out](const char* stage, std::uint64_t) {
    out.stages.emplace_back(stage);
  });
  const Status s = store.open();
  if (!s.ok()) {
    out.detail = "dry run open failed: " + s.to_string();
    return out;
  }
  std::map<std::uint64_t, std::string> model;
  std::string detail;
  if (!execute_script(store, script, model, &detail)) {
    out.detail = "dry run failed: " + detail;
    return out;
  }
  out.total_persists = store.persists();
  out.ok = true;
  return out;
}

/// One crashed trial at a known boundary (the dry run already ran).
LsmCrashReport run_one(const SystemConfig& base_cfg, Scheme scheme,
                       const LsmCrashOptions& opt,
                       const std::vector<ScriptOp>& script, std::uint64_t crash_at,
                       const DryRun& dry) {
  LsmCrashReport report;
  report.total_persists = dry.total_persists;
  report.crash_at = crash_at;
  report.crash_stage =
      crash_at < dry.stages.size() ? dry.stages[crash_at] : "end";

  System sys(base_cfg, scheme);
  std::map<std::uint64_t, std::string> model;
  AdversarySnapshot snap;
  {
    LsmStore store(sys, opt.layout, opt.engine);
    store.set_persist_hook([&](const char*, std::uint64_t index) {
      if (opt.adversary.has_value()) {
        const std::uint64_t record_at = crash_at / 2;
        const std::uint64_t durable_at = (record_at + crash_at + 1) / 2;
        if (index == record_at) {
          if (auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory())) {
            base->flush_all_metadata();
            snap = snapshot_device(*base);
          }
        } else if (index == durable_at) {
          // Later durability point: persists acknowledged-durable metadata
          // for the adversary to replay around (see kv_crash.cpp).
          if (auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory())) {
            base->flush_all_metadata();
          }
        }
      }
      if (index == crash_at) throw CrashNow{};
    });
    bool crashed = false;
    try {
      const Status s = store.open();
      if (!s.ok()) {
        report.detail = "initial open failed: " + s.to_string();
        return report;
      }
      std::string detail;
      if (!execute_script(store, script, model, &detail)) {
        report.detail = detail;
        return report;
      }
    } catch (const CrashNow&) {
      // Power failed mid-operation (possibly during the initial format);
      // fall through to recovery.
      crashed = true;
    }
    (void)crashed;
    report.committed_keys = model.size();
    report.flushes = store.stats().flushes;
    report.compactions = store.stats().compactions;
  }

  // Fold the requested hardware fault into the crash, exactly as the KV
  // harness and the fault campaigns do.
  report.faulted = opt.fault_class != FaultClass::kNone || opt.manifest_loss ||
                   opt.adversary.has_value();
  FaultInjector injector(
      FaultPlan::derive(opt.fault_class, opt.fault_seed, crash_at));
  if (opt.recovery_crash_boundary != 0) {
    injector.arm_recovery_crash(opt.recovery_crash_boundary, opt.recovery_crash_rearm);
  }
  if (opt.fault_class != FaultClass::kNone || opt.recovery_crash_boundary != 0) {
    sys.set_fault_injector(&injector);
  }
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

  try {
    sys.resync_truth_after_crash();

    if (opt.manifest_loss) {
      // The "manifest loss" hook point: clobber both replicas (the commit
      // word survives, so this is a referenced-but-undecodable manifest,
      // not a pristine region). The engine must detect it.
      for (int replica = 0; replica < 2; ++replica) {
        for (std::size_t b = 0; b < opt.layout.manifest_blocks; ++b) {
          Block garbage;
          garbage.fill(static_cast<std::uint8_t>(0xa5 + b));
          sys.store(opt.layout.manifest_addr(replica) + b * kBlockSize, garbage);
        }
      }
      // If the crash landed before the very first commit-word persist, the
      // region still reads as pristine and the garbage is unreferenced —
      // write a plausible commit word (version 1) so the loss is a
      // referenced manifest at every boundary.
      Block cb = sys.load(opt.layout.manifest_commit_addr());
      if (get_u64(cb.data()) == 0) {
        const std::uint64_t word = (std::uint64_t{1} << 1) | 1;
        for (int i = 0; i < 8; ++i) {
          cb.data()[i] = static_cast<std::uint8_t>(word >> (8 * i));
        }
        sys.store(opt.layout.manifest_commit_addr(), cb);
      }
    }

    LsmStore reopened(sys, opt.layout, opt.engine);
    reopened.apply_recovery_report(r);
    const Status s = reopened.open();
    if (!s.ok()) {
      if (report.faulted) {
        // The engine's own validation (manifest crc, run footers, WAL
        // epoch checks) refused the damaged image: that is detection.
        report.fault_detected = true;
        report.detail = "reopen refused: " + s.to_string();
        return report;
      }
      if (report.salvaged && is_unavailable(s.code())) {
        // Salvage quarantined lines under the engine's own region; typed
        // unavailability of the whole store is degraded service.
        report.keys_unavailable = model.size();
        report.degraded_verified = true;
        report.detail = "store unavailable after salvage: " + s.to_string();
        return report;
      }
      report.detail = "reopen failed: " + s.to_string();
      return report;
    }
    report.wal_torn = reopened.wal_replay_torn();

    if (!report.salvaged) {
      try {
        const std::map<std::uint64_t, std::string> recovered = reopened.dump();
        report.detail = diff_detail(model, recovered);
        report.verified = report.detail.empty();
        return report;
      } catch (const StatusError& e) {
        if (!is_unavailable(e.code())) throw;
        report.salvaged = true;  // lazy typed loss on first read — degrade
      }
    }

    // Salvage diff: every committed key must read back exactly or fail
    // with a typed unavailable error; silent divergence fails.
    if (!salvage_committed_keys(reopened, model, &report.keys_unavailable, &report.detail)) {
      return report;
    }
    const LsmStore::DegradedDump dump = reopened.dump_degraded();
    if (dump.runs_unavailable == 0) {
      // With every run readable the merged view is authoritative: nothing
      // uncommitted may appear. (With runs missing, older values legally
      // resurface in the merge — the per-key check above already proved
      // point reads stay exact-or-typed.)
      for (const auto& [key, value] : dump.live) {
        const auto want = model.find(key);
        if (want == model.end() || want->second != value) {
          report.detail = "uncommitted key " + std::to_string(key) +
                          " served after salvage";
          return report;
        }
      }
    }
    report.degraded_verified = true;
  } catch (const IntegrityViolation& e) {
    report.fault_detected = report.faulted;
    report.detail = std::string("reopen raised: ") + e.what();
  } catch (const StatusError& e) {
    report.detail = std::string("reopen failed: ") + e.what();
  }
  return report;
}

}  // namespace

LsmCrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                        const LsmCrashOptions& opt) {
  const std::vector<ScriptOp> script = make_script(opt);
  const DryRun dry = dry_run(base_cfg, scheme, opt, script);
  if (!dry.ok) {
    LsmCrashReport report;
    report.detail = dry.detail;
    return report;
  }
  std::uint64_t crash_at;
  if (opt.crash_at == LsmCrashOptions::kRandomBoundary) {
    Xoshiro256 boundary_rng(opt.seed * 0x2545f4914f6cdd1dULL + 3);
    crash_at = boundary_rng.below(dry.total_persists + 1);
  } else {
    crash_at = std::min(opt.crash_at, dry.total_persists);
  }
  return run_one(base_cfg, scheme, opt, script, crash_at, dry);
}

LsmCrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                    const LsmCrashOptions& opt, std::uint64_t stride,
                                    unsigned jobs) {
  STEINS_CHECK(stride > 0, "matrix stride must be positive");
  LsmCrashMatrix matrix;
  const std::vector<ScriptOp> script = make_script(opt);
  const DryRun dry = dry_run(base_cfg, scheme, opt, script);
  if (!dry.ok) {
    matrix.counts.add(Verdict::kSilent);
    matrix.failures.emplace_back(0, dry.detail);
    return matrix;
  }
  matrix.total_persists = dry.total_persists;

  std::vector<std::uint64_t> boundaries;
  for (std::uint64_t b = 0; b <= dry.total_persists; b += stride) {
    boundaries.push_back(b);
  }
  if (boundaries.back() != dry.total_persists) {
    boundaries.push_back(dry.total_persists);  // always test the clean end
  }

  std::vector<LsmCrashReport> reports(boundaries.size());
  const auto trial = [&](std::size_t i) {
    reports[i] = run_one(base_cfg, scheme, opt, script, boundaries[i], dry);
  };
  if (jobs > 1) {
    ThreadPool pool(jobs);
    pool.for_each_index(boundaries.size(), trial);
  } else {
    for (std::size_t i = 0; i < boundaries.size(); ++i) trial(i);
  }

  // Deterministic tally merge in boundary order.
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const LsmCrashReport& r = reports[i];
    ++matrix.stage_trials[r.crash_stage];
    if (!r.pass(scheme)) matrix.failures.emplace_back(boundaries[i], r.detail);
    matrix.counts.add(r.verdict(scheme));
  }
  return matrix;
}

}  // namespace steins::lsm
