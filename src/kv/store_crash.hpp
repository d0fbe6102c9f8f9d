// The persist-boundary crash harness of the KV store and the LSM engine
// (DESIGN.md §11 "Store crash harness"): kill a scripted store before a
// chosen persist barrier, recover (optionally faulted), reopen, and diff
// against the committed model. It is a template over a store adapter that
// holds only engine facts (kv_crash.cpp, lsm_crash.cpp): Store/Report
// types, seed salts, kCommitOnReturn (else open() feeds the model from a
// commit hook), max_value_bytes() and the hooks make, open, injects_fault,
// note_crash, before_reopen, reopen and authoritative.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "fault/adversary.hpp"
#include "fault/fault.hpp"
#include "fault/verdict.hpp"
#include "kv/kv_store.hpp"
#include "sim/system.hpp"

namespace steins::kv {

struct StoreCrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};

  std::uint64_t ops = 64;        // scripted put/erase/get operations
  std::uint64_t keys = 16;       // key universe the script draws from
  std::size_t value_bytes = 24;  // payload per value; over the store's limit throws
  std::uint64_t seed = 1;        // script + boundary-choice seed
  std::uint64_t crash_at = kRandomBoundary;  // persist barrier index to die at

  // Hardware fault folded into the crash; the plan derives from
  // (fault_seed, crash_at).
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;

  /// Nested recovery crash (DESIGN.md §17) at this 1-based recovery
  /// persist boundary (0 = off), re-entered by the bounded retry loop.
  std::uint64_t recovery_crash_boundary = 0;
  bool recovery_crash_rearm = false;
  RecoveryRetryPolicy retry_policy;

  // Adversary applied between the crash drain and recovery (run_trial);
  // runtime-only scenarios (data-replay, wear-out) are no-ops here.
  std::optional<AdversaryScenario> adversary;
  std::uint64_t adversary_seed = 0;
};

struct StoreCrashReport : CrashVerdict {
  std::uint64_t keys_unavailable = 0;  // committed keys behind typed errors
  std::uint64_t total_persists = 0;    // barriers in the full script
  std::uint64_t crash_at = 0;          // barrier the run was killed before
  std::string crash_stage;             // that barrier's persist stage ("end" = none)
  std::uint64_t committed_keys = 0;    // model size at the crash point
  bool adversary_injected = false;     // the scenario's mutation actually landed
  std::string adversary_events;        // what the adversary mutated
};

struct StoreCrashMatrix {
  VerdictCounts counts;  // one per trial; must stay clean()
  std::uint64_t total_persists = 0;
  /// Boundaries visited per persist stage: the sweep's coverage proof.
  std::map<std::string, std::uint64_t> stage_trials;
  /// Every failing (silent or unrecoverable) boundary and its detail.
  std::vector<std::pair<std::uint64_t, std::string>> failures;
};

namespace store_crash {

using Model = std::map<std::uint64_t, std::string>;

struct CrashNow {};  // thrown from the persist hook

struct ScriptOp {
  enum class Kind { kPut, kErase, kGet } kind;
  std::uint64_t key;
  std::string value;  // for puts
};
using Script = std::vector<ScriptOp>;

/// Put-heavy script over a small key universe (updates, tombstones and
/// reads all occur); std::invalid_argument if value_bytes > the limit.
Script make_script(const StoreCrashOptions& opt, std::size_t max_value_bytes,
                   std::uint64_t salt);

struct DryRun {
  std::uint64_t total_persists = 0;
  std::vector<std::string> stages;  // each barrier's stage label
  std::string detail;               // non-empty: the dry run failed
};

/// Power-fail `sys` with the fault, nested crash and adversary folded in,
/// and classify the recovery; nullopt when that settled the verdict.
std::optional<RecoveryResult> crash_and_classify(
    System& sys, Scheme scheme, const StoreCrashOptions& opt, std::uint64_t crash_at,
    const AdversarySnapshot& snap, bool engine_fault, StoreCrashReport* report);

std::string diff_detail(const Model& model, const Model& recovered);  // "" when equal
bool served_only_committed(const Model& live, const Model& model, std::string* detail);

/// trial(b) for b = 0, stride, ..., total_persists on `jobs` threads.
StoreCrashMatrix sweep(const DryRun& dry, Scheme scheme, std::uint64_t stride, unsigned jobs,
                       const std::function<StoreCrashReport(std::uint64_t)>& trial);

/// Run the script with the model in step; false if a read disagreed.
template <class Adapter>
bool execute_script(typename Adapter::Store& store, const Script& script, Model& model,
                    std::string* detail) {
  for (const ScriptOp& op : script) {
    if (op.kind == ScriptOp::Kind::kPut) {
      store.put(op.key, op.value);
      if (Adapter::kCommitOnReturn) model[op.key] = op.value;
    } else if (op.kind == ScriptOp::Kind::kErase) {
      store.erase(op.key);
      if (Adapter::kCommitOnReturn) model.erase(op.key);
    } else {
      const std::optional<std::string> got = store.get(op.key);
      const auto want = model.find(op.key);
      if (want == model.end() ? got.has_value() : got != want->second) {
        *detail = "runtime get mismatch for key " + std::to_string(op.key);
        return false;
      }
    }
  }
  return true;
}

/// Count (and label) the persist barriers of the unperturbed script.
template <class Adapter>
DryRun dry_run(const Adapter& a, const SystemConfig& cfg, Scheme scheme, const Script& script) {
  DryRun out;
  System sys(cfg, scheme);
  const auto store = a.make(sys);
  store->set_persist_hook([&out](const char* stage, std::uint64_t) {
    out.stages.emplace_back(stage);
  });
  Model model;
  const Status s = a.open(*store, &model);
  if (!s.ok()) {
    out.detail = "dry run open failed: " + s.to_string();
  } else if (!execute_script<Adapter>(*store, script, model, &out.detail)) {
    out.detail = "dry run failed: " + out.detail;
  } else {
    out.total_persists = store->persists();
  }
  return out;
}

/// One crashed trial at a known boundary.
template <class Adapter>
typename Adapter::Report run_trial(const Adapter& a, const SystemConfig& cfg, Scheme scheme,
                                   const Script& script, const DryRun& dry,
                                   std::uint64_t crash_at) {
  typename Adapter::Report report;
  report.total_persists = dry.total_persists;
  report.crash_at = crash_at;
  report.crash_stage = crash_at < dry.stages.size() ? dry.stages[crash_at] : "end";
  System sys(cfg, scheme);
  Model model;
  AdversarySnapshot snap;
  {
    const auto store = a.make(sys);
    store->set_persist_hook([&](const char*, std::uint64_t index) {
      // An adversary snapshots at the midpoint after a metadata flush; the
      // flush at 3/4 persists acknowledged-durable metadata to replay
      // around (else rollbacks would find nothing persisted to revert).
      const std::uint64_t record_at = crash_at / 2;
      if (a.opt.adversary.has_value() &&
          (index == record_at || index == (record_at + crash_at + 1) / 2)) {
        if (auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory())) {
          base->flush_all_metadata();
          if (index == record_at) snap = snapshot_device(*base);
        }
      }
      if (index == crash_at) throw CrashNow{};
    });
    try {
      const Status s = a.open(*store, &model);
      if (!s.ok()) {
        report.detail = "initial open failed: " + s.to_string();
        return report;
      }
      if (!execute_script<Adapter>(*store, script, model, &report.detail)) return report;
    } catch (const CrashNow&) {
      // Power failed mid-operation (possibly while formatting).
    }
    report.committed_keys = model.size();
    a.note_crash(*store, &report);
  }

  const std::optional<RecoveryResult> r =
      crash_and_classify(sys, scheme, a.opt, crash_at, snap, a.injects_fault(), &report);
  if (!r.has_value()) return report;
  // Reboot: resync the plaintext view, reopen the store, and run the exact
  // diff, or the salvage diff: every committed key reads back exactly or
  // fails typed, and an authoritative degraded dump serves nothing else.
  try {
    sys.resync_truth_after_crash();
    a.before_reopen(sys);
    const auto store = a.make(sys);
    store->apply_recovery_report(*r);
    if (!a.reopen(*store, model, &report)) return report;
    if (!report.salvaged) {
      try {
        report.detail = diff_detail(model, store->dump());
        report.verified = report.detail.empty();
        return report;
      } catch (const StatusError& e) {
        // A loss recovery never scans (ASIT/STAR rebuild from tracking
        // metadata only) surfaces typed on first read: degraded service.
        if (!is_unavailable(e.code())) throw;
        report.salvaged = true;
      }
    }
    if (!salvage_committed_keys(*store, model, &report.keys_unavailable, &report.detail)) {
      return report;
    }
    const auto dump = store->dump_degraded();
    report.degraded_verified =
        !a.authoritative(dump) || served_only_committed(dump.live, model, &report.detail);
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

/// One trial at opt.crash_at (or a seeded-random boundary).
template <class Adapter>
typename Adapter::Report run_store_crash(const Adapter& a, const SystemConfig& cfg,
                                         Scheme scheme) {
  const Script script = make_script(a.opt, a.max_value_bytes(), Adapter::kScriptSalt);
  const DryRun dry = dry_run(a, cfg, scheme, script);
  if (!dry.detail.empty()) {
    typename Adapter::Report report;
    report.detail = dry.detail;
    return report;
  }
  // Uniform over 0 (before the first barrier) .. total (after the last).
  Xoshiro256 boundary_rng(a.opt.seed * 0x2545f4914f6cdd1dULL + Adapter::kBoundarySalt);
  const std::uint64_t crash_at = a.opt.crash_at == StoreCrashOptions::kRandomBoundary
                                     ? boundary_rng.below(dry.total_persists + 1)
                                     : std::min(a.opt.crash_at, dry.total_persists);
  return run_trial(a, cfg, scheme, script, dry, crash_at);
}

/// One trial per boundary 0, stride, ..., and always the clean end.
template <class Adapter>
StoreCrashMatrix run_store_crash_matrix(const Adapter& a, const SystemConfig& cfg,
                                        Scheme scheme, std::uint64_t stride, unsigned jobs) {
  const Script script = make_script(a.opt, a.max_value_bytes(), Adapter::kScriptSalt);
  const DryRun dry = dry_run(a, cfg, scheme, script);
  return sweep(dry, scheme, stride, jobs, [&](std::uint64_t at) {
    return StoreCrashReport(run_trial(a, cfg, scheme, script, dry, at));
  });
}

}  // namespace store_crash

using store_crash::run_store_crash;
using store_crash::run_store_crash_matrix;

}  // namespace steins::kv
