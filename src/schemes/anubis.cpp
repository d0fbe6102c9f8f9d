#include "schemes/anubis.hpp"

#include <cstring>
#include "common/flat_map.hpp"

namespace steins {

AnubisMemory::AnubisMemory(const SystemConfig& cfg) : SecureMemoryBase(cfg) {
  STEINS_CHECK(cfg.counter_mode == CounterMode::kGeneral,
               "ASIT is evaluated with general counter blocks only (paper §IV)");
  shadow_base_ = geo_.aux_base();
  std::size_t n = mcache_.num_lines();
  tree_.emplace_back(n, 0);
  while (n > 1) {
    n = (n + kTreeArity - 1) / kTreeArity;
    tree_.emplace_back(n, 0);
  }
  recompute_internals();
  root_reg_ = tree_.back()[0];
}

void AnubisMemory::recompute_internals() {
  for (std::size_t level = 0; level + 1 < tree_.size(); ++level) {
    for (std::size_t p = 0; p < tree_[level + 1].size(); ++p) {
      const std::size_t first = p * kTreeArity;
      const std::size_t n = std::min(kTreeArity, tree_[level].size() - first);
      tree_[level + 1][p] = internal_mac(&tree_[level][first], n);
    }
  }
}

std::uint64_t AnubisMemory::leaf_mac(const Block& image, std::size_t line_idx) const {
  std::uint8_t buf[kBlockSize + 8];
  std::memcpy(buf, image.data(), kBlockSize);
  const std::uint64_t idx = line_idx;
  std::memcpy(buf + kBlockSize, &idx, 8);
  return cme_.mac().mac64({buf, sizeof(buf)});
}

std::uint64_t AnubisMemory::internal_mac(const std::uint64_t* children, std::size_t n) const {
  return cme_.mac().mac64({reinterpret_cast<const std::uint8_t*>(children), n * 8});
}

void AnubisMemory::update_tree_path(std::size_t line_idx, Cycle&) {
  std::size_t idx = line_idx;
  for (std::size_t level = 0; level + 1 < tree_.size(); ++level) {
    const std::size_t parent = idx / kTreeArity;
    const std::size_t first = parent * kTreeArity;
    const std::size_t n = std::min(kTreeArity, tree_[level].size() - first);
    tree_[level + 1][parent] = internal_mac(&tree_[level][first], n);
    // Sequential HMACs up the cache-tree (paper §II-D): modification-path
    // cost, charged to the write-latency side channel.
    charge_tracking(cfg_.secure.hash_latency_cycles, /*is_hash=*/true);
    idx = parent;
  }
  root_reg_ = tree_.back()[0];
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

  tree_[0][static_cast<std::size_t>(line_idx)] =
      leaf_mac(image, static_cast<std::size_t>(line_idx));
  charge_tracking(cfg_.secure.hash_latency_cycles, /*is_hash=*/true);
  update_tree_path(static_cast<std::size_t>(line_idx), now);
}

void AnubisMemory::crash() {
  SecureMemoryBase::crash();
  // The cache-tree body is volatile; only the root register survives.
  for (auto& level : tree_) {
    for (auto& m : level) m = 0;
  }
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

  // Pass 1: read every shadow entry (image and identity tag in one probe),
  // rebuild the cache-tree, compare roots.
  std::vector<Block> images(lines);
  std::vector<std::uint64_t> tags(lines, 0);
  std::vector<bool> present(lines, false);
  for (std::size_t i = 0; i < lines; ++i) {
    ++recovery_reads_;
    bool dead = false;
    if (!dev_.peek_resident(shadow_addr(i), &images[i], &tags[i], &dead)) continue;
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
    tree_[0][i] = leaf_mac(images[i], i);
  }
  recompute_internals();
  if (tree_.back()[0] != root_reg_) {
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
    SitNode node = SitNode::from_block(id, false, images[i]);
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
