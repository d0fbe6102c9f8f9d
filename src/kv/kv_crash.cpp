#include "kv/kv_crash.hpp"

namespace steins::kv {

namespace {

struct KvAdapter {
  using Store = KvStore;
  using Report = KvCrashReport;
  static constexpr std::uint64_t kScriptSalt = 1;
  static constexpr std::uint64_t kBoundarySalt = 7;
  // An operation's last barrier is its commit-word persist, so it commits
  // exactly when it returns.
  static constexpr bool kCommitOnReturn = true;

  const KvCrashOptions& opt;

  std::size_t max_value_bytes() const { return kMaxValueBytes; }
  std::unique_ptr<KvStore> make(System& sys) const {  // formats or adopts the region
    return std::make_unique<KvStore>(sys, KvLayout{.slots = opt.slots});
  }
  Status open(KvStore&, store_crash::Model*) const { return Status::Ok(); }
  bool injects_fault() const { return false; }
  void note_crash(const KvStore&, Report*) const {}
  void before_reopen(System&) const {}
  bool reopen(KvStore&, const store_crash::Model&, Report*) const { return true; }
  bool authoritative(const KvStore::DegradedDump&) const { return true; }
};

}  // namespace

KvCrashReport run_kv_crash_validation(const SystemConfig& base_cfg, Scheme scheme,
                                      const KvCrashOptions& opt) {
  return run_store_crash(KvAdapter{opt}, base_cfg, scheme);
}

StoreCrashMatrix run_kv_crash_matrix(const SystemConfig& base_cfg, Scheme scheme,
                                     const KvCrashOptions& opt, std::uint64_t stride,
                                     unsigned jobs) {
  return run_store_crash_matrix(KvAdapter{opt}, base_cfg, scheme, stride, jobs);
}

}  // namespace steins::kv
