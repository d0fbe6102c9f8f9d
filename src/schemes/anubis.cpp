#include "schemes/anubis.hpp"

#include <cstring>
#include "common/flat_map.hpp"

namespace steins {

AnubisMemory::AnubisMemory(const SystemConfig& cfg)
    : SecureMemoryBase(cfg), staged_(mcache_.num_lines()), tree_(mcache_.num_lines()) {
  STEINS_CHECK(cfg.counter_mode == CounterMode::kGeneral,
               "ASIT is evaluated with general counter blocks only (paper §IV)");
  shadow_base_ = geo_.aux_base();
  root_reg_ = settle_tree();
}

std::uint64_t AnubisMemory::leaf_mac(std::size_t line_idx) const {
  std::uint8_t buf[kBlockSize + 8];
  std::memcpy(buf, staged_[line_idx].data(), kBlockSize);
  const std::uint64_t idx = line_idx;
  std::memcpy(buf + kBlockSize, &idx, 8);
  return cme_.mac().mac64({buf, sizeof(buf)});
}

void AnubisMemory::on_node_modified(NodeId id, Cycle& now) {
  const Addr addr = geo_.node_addr(id);
  const std::int64_t line_idx = mcache_.line_index(addr);
  STEINS_CHECK(line_idx >= 0, "modified node must be cached");
  const MetadataLine* line = mcache_.peek(addr);
  const Block image = line->payload.to_block(0);

  // Persist the updated node to the shadow table: the 2x write overhead.
  // Anubis persists the ST entry atomically with the update, so the cell
  // programming time sits on the critical path of every modification.
  const Addr saddr = shadow_addr(static_cast<std::size_t>(line_idx));
  const std::uint64_t sid = encode_id(id);
  now = timed_write(saddr, image, now, nullptr, 0, &sid);
  if (!recovering_) charge_tracking(cfg_.nvm_write_cycles());
  ++stats_.aux_writes;

  // The leaf MAC and the sequential HMACs up the cache-tree (paper §II-D):
  // modification-path cost, charged to the write-latency side channel.
  // The host computes them once, when the root is latched.
  staged_[static_cast<std::size_t>(line_idx)] = image;
  tree_.touch(static_cast<std::size_t>(line_idx));
  for (unsigned level = 0; level < tree_.depth(); ++level) {
    charge_tracking(cfg_.secure.hash_latency_cycles, /*is_hash=*/true);
  }
}

void AnubisMemory::crash() {
  // The root register holds the root as of the last modification; a crash
  // with none since the last one (or since recovery) leaves it as it is.
  if (!tree_.settled()) root_reg_ = settle_tree();
  SecureMemoryBase::crash();
  // The cache-tree body is volatile; only the root register survives.
  tree_.clear();
}

RecoveryReport AnubisMemory::recover() {
  RecoveryReport result;
  recovery_prologue();
  try {
    recover_impl(result);
  } catch (const IntegrityViolation& e) {
    if (!result.attack_detected) {
      result.attack_detected = true;
      result.attack_detail = e.what();
    }
  } catch (const StatusError& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = Status(ErrorCode::kInternal, e.what());
  }
  return finish_recovery(std::move(result));
}

void AnubisMemory::recover_impl(RecoveryReport& result) {
  const std::size_t lines = mcache_.num_lines();
  bool ecc_evidence = false;

  // Pass 1: read every shadow entry (image and identity tag in one probe)
  // into its line's staging slot, rebuild the cache-tree over the present
  // ones, compare roots. Absent and dead entries stay untouched leaves (0).
  std::vector<std::uint64_t> tags(lines, 0);
  std::vector<bool> present(lines, false);
  for (std::size_t i = 0; i < lines; ++i) {
    ++recovery_reads_;
    bool dead = false;
    if (!dev_.peek_resident(shadow_addr(i), &staged_[i], &tags[i], &dead)) continue;
    if (dead) {
      // The entry's latest node image is gone. Its identity survives in the
      // ECC-colocated tag: quarantine the data the lost node covered and
      // keep replaying every other entry.
      ecc_evidence = true;
      result.tracking_degraded = true;
      NodeId id;
      if (decode_id(tags[i], &id)) {
        quarantine_node_subtree(id, QuarantineReason::kEccMeta);
      }
      continue;
    }
    present[i] = true;
  }
  // Touch only after the scan: a nested crash inside it (a quarantine
  // persist) must find the tree settled, so the register stays as it is.
  for (std::size_t i = 0; i < lines; ++i) {
    if (present[i]) tree_.touch(i);
  }
  if (settle_tree() != root_reg_) {
    if (!ecc_evidence) {
      result.attack_detected = true;
      result.attack_detail = "ASIT cache-tree root mismatch: shadow table corrupted";
      return;
    }
    // Lost entries make the aggregate root unprovable; the replay below is
    // individually cross-checked against NVM images and anything tampered
    // still fails its node/data MAC at first use. Proceed degraded.
  }

  // Pass 2: replay shadow entries into the metadata cache. A node can
  // appear in more than one (stale) entry; counters are monotone, so the
  // entry with the largest parent value is the latest.
  FlatMap<SitNode> latest;
  std::vector<std::uint64_t> latest_keys;  // replay in first-seen order
  for (std::size_t i = 0; i < lines; ++i) {
    if (!present[i]) continue;
    NodeId id;
    if (!decode_id(tags[i], &id)) continue;
    SitNode node = SitNode::from_block(id, false, staged_[i]);
    const std::uint64_t key = encode_id(id);
    if (SitNode* existing = latest.find(key)) {
      if (node.parent_value() > existing->parent_value()) *existing = node;
    } else {
      latest.get_or_create(key) = node;
      latest_keys.push_back(key);
    }
  }
  for (const std::uint64_t key : latest_keys) {
    SitNode& node = *latest.find(key);
    MetadataLine* line = nullptr;
    const Addr addr = geo_.node_addr(node.id);
    if (mcache_.peek(addr) != nullptr) continue;
    // A shadow entry can be stale: the node was evicted (persisted) later
    // and its fresher entry overwritten by the line's next occupant.
    // Counters are monotone, so skip entries at or below the NVM image —
    // the node is clean and current in NVM.
    Block nvm_img;
    bool dead = false;
    if (dev_.peek_resident(addr, &nvm_img, nullptr, &dead)) {
      ++recovery_reads_;
      if (!dead) {
        const SitNode nvm_node = SitNode::from_block(node.id, false, nvm_img);
        if (nvm_node.parent_value() >= node.parent_value()) continue;
      }
      // Dead NVM copy: the shadow entry is the only readable version —
      // install it; re-persisting lays down a fresh codeword.
    }
    auto victim = mcache_.insert(addr, true, node, &line);
    if (victim && victim->dirty) {
      persist_detached(victim->payload, 0);
    }
    // Refresh the shadow entry at the node's (possibly new) cache line so
    // the next crash still finds its latest state.
    Cycle t = 0;
    on_node_modified(node.id, t);
    ++result.nodes_recovered;
  }
}

}  // namespace steins
