// SCUE-style scheme (paper §II-D; Huang & Hua, HPCA'23 "Root crash
// consistency of SGX-style integrity trees").
//
// Runtime: like Steins, parent counters are derivable from children (Eq. 1
// sums), but the only recovery trust base is the Recovery_root — the sum of
// all leaf counters — kept in an on-chip NV register and bumped on every
// data write. No dirty tracking exists, so runtime overhead is minimal
// ("SCUE achieves high performance").
//
// Recovery: with no record of WHICH nodes were dirty, SCUE must rebuild the
// ENTIRE tree from all the leaf nodes (recovering each leaf counter
// Osiris-style from the data HMACs), summing the leaf counters and
// comparing against Recovery_root. That full-memory scan is why the paper
// excludes SCUE from its comparison: "the recovery time is hour-scale for
// TB memory, which is unacceptable" — the recovery_scaling study of
// bench/paper_studies reproduces that argument quantitatively.
#pragma once

#include "secure/secure_memory.hpp"

namespace steins {

class ScueMemory final : public SecureMemoryBase {
 public:
  explicit ScueMemory(const SystemConfig& cfg);

  RecoveryResult recover() override;

  std::uint64_t recovery_root() const { return recovery_root_; }

  /// Stop-loss period bounding the per-leaf counter recovery search.
  static constexpr std::uint64_t kStopLoss = 64;

 protected:
  Cycle persist_node(SitNode& node, Cycle now) override;
  CounterBump bump_leaf_counter(MetadataLine& leaf, std::size_t slot, Cycle& now) override;

 private:
  /// Recovery body; recover() wraps it so every exit yields a report.
  void recover_impl(RecoveryReport& result);

  std::uint64_t recovery_root_ = 0;  // on-chip NV register: sum of leaf counters
};

}  // namespace steins
