#include "kv/lsm/lsm_crash.hpp"

namespace steins::lsm {

namespace {

using kv::store_crash::Model;

struct LsmAdapter {
  using Store = LsmStore;
  using Report = LsmCrashReport;
  static constexpr std::uint64_t kScriptSalt = 5;
  static constexpr std::uint64_t kBoundarySalt = 3;
  // An op commits at its WAL record's last barrier, possibly before a
  // flush or compaction the same call triggers: the commit hook decides.
  static constexpr bool kCommitOnReturn = false;

  const LsmCrashOptions& opt;

  std::size_t max_value_bytes() const { return opt.engine.max_value_bytes; }
  std::unique_ptr<LsmStore> make(System& sys) const {
    return std::make_unique<LsmStore>(sys, opt.layout, opt.engine);
  }
  Status open(LsmStore& store, Model* committed) const {
    store.set_commit_hook([committed](std::uint64_t key, WalKind kind, const std::string& value) {
      if (kind == WalKind::kErase) {
        committed->erase(key);
      } else {
        (*committed)[key] = value;
      }
    });
    return store.open();
  }
  bool injects_fault() const { return opt.manifest_loss; }
  void note_crash(const LsmStore& store, LsmCrashReport* report) const {
    report->flushes = store.stats().flushes;
    report->compactions = store.stats().compactions;
  }

  /// Manifest loss: clobber both replicas, keeping the commit word so the
  /// manifest is referenced but undecodable (not a pristine region).
  void before_reopen(System& sys) const {
    if (!opt.manifest_loss) return;
    for (int replica = 0; replica < 2; ++replica) {
      for (std::size_t b = 0; b < opt.layout.manifest_blocks; ++b) {
        Block garbage;
        garbage.fill(static_cast<std::uint8_t>(0xa5 + b));
        sys.store(opt.layout.manifest_addr(replica) + b * kBlockSize, garbage);
      }
    }
    // Before the first commit-word persist the garbage is unreferenced:
    // write a plausible commit word (version 1) so it is referenced.
    Block cb = sys.load(opt.layout.manifest_commit_addr());
    if (get_u64(cb.data()) == 0) {
      const std::uint64_t word = (std::uint64_t{1} << 1) | 1;
      for (int i = 0; i < 8; ++i) cb.data()[i] = static_cast<std::uint8_t>(word >> (8 * i));
      sys.store(opt.layout.manifest_commit_addr(), cb);
    }
  }

  /// Open the recovered image; false when its Status settles the verdict.
  bool reopen(LsmStore& store, const Model& model, LsmCrashReport* report) const {
    const Status s = store.open();
    if (s.ok()) {
      report->wal_torn = store.wal_replay_torn();
      return true;
    }
    if (report->faulted) {
      // The engine's own checks (manifest crc, run footers, WAL epochs)
      // refused the damaged image: detection.
      report->fault_detected = true;
      report->detail = "reopen refused: " + s.to_string();
    } else if (report->salvaged && is_unavailable(s.code())) {
      // Salvage quarantined the engine's own region: typed whole-store
      // unavailability is degraded service.
      report->keys_unavailable = model.size();
      report->degraded_verified = true;
      report->detail = "store unavailable after salvage: " + s.to_string();
    } else {
      report->detail = "reopen failed: " + s.to_string();
    }
    return false;
  }

  /// With runs missing, older values legally resurface in the merged
  /// view (point reads were already proved exact-or-typed).
  bool authoritative(const LsmStore::DegradedDump& dump) const {
    return dump.runs_unavailable == 0;
  }
};

}  // namespace

LsmCrashReport run_lsm_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                        const LsmCrashOptions& opt) {
  return kv::run_store_crash(LsmAdapter{opt}, base_cfg, scheme);
}

LsmCrashMatrix run_lsm_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                    const LsmCrashOptions& opt, std::uint64_t stride,
                                    unsigned jobs) {
  return kv::run_store_crash_matrix(LsmAdapter{opt}, base_cfg, scheme, stride, jobs);
}

}  // namespace steins::lsm
