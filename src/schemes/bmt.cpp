#include "schemes/bmt.hpp"

#include <cassert>
#include <cstring>

#include "fault/fault.hpp"
#include "sit/counter_block.hpp"
#include "sit/node.hpp"

namespace steins {

BmtMemory::BmtMemory(const SystemConfig& cfg, std::uint64_t key_seed)
    : cfg_(cfg),
      geo_(cfg.nvm, CounterMode::kGeneral),
      dev_(cfg.nvm),
      channel_(cfg_, dev_),
      cme_(key_seed),
      mcache_(cfg.secure.metadata_cache.size_bytes, cfg.secure.metadata_cache.ways,
              cfg.secure.metadata_cache.block_bytes),
      root_(geo_.root_children(), 0) {
  // The all-zero initial tree: a zero root slot stands for "never written".
}

std::uint64_t BmtMemory::hash_of(const Block& image, Addr addr) const {
  std::uint8_t buf[kBlockSize + 8];
  std::memcpy(buf, image.data(), kBlockSize);
  std::memcpy(buf + kBlockSize, &addr, 8);
  return cme_.mac().mac64({buf, sizeof(buf)});
}

std::uint64_t BmtMemory::expected_hash(NodeId id, Cycle& now) {
  if (geo_.is_top_level(id)) return root_[id.index];
  const NodeId parent = geo_.parent_of(id);
  const Block pimg = fetch_meta(parent, now);
  std::uint64_t h;
  std::memcpy(&h, pimg.data() + geo_.slot_in_parent(id) * 8, 8);
  return h;
}

Block BmtMemory::fetch_meta(NodeId id, Cycle& now, bool* from_cache) {
  const Addr addr = geo_.node_addr(id);
  ++stats_.mcache_accesses;
  if (auto* line = mcache_.lookup(addr); line != nullptr && line->payload.valid) {
    if (from_cache != nullptr) *from_cache = true;
    now += 1;
    return line->payload.data;
  }
  if (from_cache != nullptr) *from_cache = false;

  // Resolve the expected hash first (recursion toward the root).
  const std::uint64_t expect = expected_hash(id, now);
  const bool exists = dev_.contains(addr) || channel_.queued(addr);
  Block img{};
  now = channel_.read(addr, now, &img);
  ++stats_.meta_reads;
  if (exists) {
    const std::uint64_t h = hash_of(img, addr);
    charge_hash(now);
    if (h != expect) {
      throw IntegrityViolation("BMT hash mismatch at level " + std::to_string(id.level) +
                               " index " + std::to_string(id.index));
    }
  } else if (expect != 0) {
    throw IntegrityViolation("missing BMT block with nonzero parent hash");
  }

  // Insert; flush a dirty victim (its branch hashes are already current, so
  // a plain write suffices).
  if (auto* line = mcache_.peek_mut(addr)) {
    line->payload = CachedBlock{img, true};
    return img;
  }
  auto victim = mcache_.insert(addr, false, CachedBlock{img, true});
  if (victim && victim->dirty && victim->payload.valid) {
    now = channel_.write(victim->addr, victim->payload.data, now);
    ++stats_.meta_writes;
  }
  return img;
}

void BmtMemory::update_branch(NodeId id, const Block& leaf_image, Cycle& now) {
  // Sequential hash chain (paper §II-C): each level's hash is an input to
  // the next, so the latencies serialize — the BMT's key disadvantage.
  Block child_image = leaf_image;
  NodeId cur = id;
  while (!geo_.is_top_level(cur)) {
    const std::uint64_t h = hash_of(child_image, geo_.node_addr(cur));
    charge_hash(now);
    const NodeId parent = geo_.parent_of(cur);
    Block pimg = fetch_meta(parent, now);
    std::memcpy(pimg.data() + geo_.slot_in_parent(cur) * 8, &h, 8);
    auto* pline = mcache_.lookup(geo_.node_addr(parent), true);
    assert(pline != nullptr);
    pline->payload.data = pimg;
    child_image = pimg;
    cur = parent;
  }
  const std::uint64_t top = hash_of(child_image, geo_.node_addr(cur));
  charge_hash(now);
  root_[cur.index] = top;
}

Cycle BmtMemory::write_block(Addr addr, const Block& data, Cycle now) {
  Cycle t = std::max(now, mc_free_at_);
  const std::uint64_t block = addr / kBlockSize;
  const NodeId leaf = geo_.leaf_of_data(block);
  const std::size_t slot = geo_.slot_of_data(block);

  Block img = fetch_meta(leaf, t);
  GeneralCounterBlock cb = GeneralCounterBlock::decode({img.data(), 56});
  cb.increment(slot);
  const NodePayload payload = cb.encode();
  std::memcpy(img.data(), payload.data(), payload.size());

  auto* line = mcache_.lookup(geo_.node_addr(leaf), true);
  assert(line != nullptr);
  line->payload.data = img;

  // Stop-loss: persist the counter block periodically to bound recovery.
  if (cb.counters[slot] % kStopLoss == 0) {
    t = channel_.write(geo_.node_addr(leaf), img, t);
    ++stats_.meta_writes;
    line->dirty = false;
  }

  // Propagate the new leaf hash to the root, sequentially.
  update_branch(leaf, img, t);

  ++stats_.aes_ops;
  const Block ct = cme_.encrypt(data, addr, cb.counters[slot]);
  const std::uint64_t tag = cme_.data_mac(ct, addr, cb.counters[slot], 0);
  charge_hash(t);
  const Cycle accept = channel_.write(addr, ct, t);
  dev_.write_tag(addr, tag);
  ++stats_.data_writes;
  stats_.write_latency.add((accept - now) + cfg_.nvm_write_cycles());

  mc_free_at_ = accept;
  return accept;
}

Cycle BmtMemory::read_block(Addr addr, Cycle now, Block* out) {
  Cycle t = std::max(now, mc_free_at_);
  const std::uint64_t block = addr / kBlockSize;
  const NodeId leaf = geo_.leaf_of_data(block);
  const std::size_t slot = geo_.slot_of_data(block);

  const Block img = fetch_meta(leaf, t);
  const GeneralCounterBlock cb = GeneralCounterBlock::decode({img.data(), 56});
  const std::uint64_t ctr = cb.counters[slot];

  const bool exists = dev_.contains(addr) || channel_.queued(addr);
  Block ct{};
  const Cycle t_data = channel_.read(addr, t, &ct);
  ++stats_.data_reads;
  ++stats_.aes_ops;
  Cycle ready = std::max(t_data, t + cfg_.secure.aes_latency_cycles);

  if (exists) {
    const std::uint64_t tag = dev_.read_tag(addr);
    const std::uint64_t mac = cme_.data_mac(ct, addr, ctr, 0);
    charge_hash(ready);
    if (mac != tag) {
      throw IntegrityViolation("data HMAC mismatch at block " + std::to_string(block));
    }
    if (out != nullptr) *out = cme_.decrypt(ct, addr, ctr);
  } else {
    if (ctr != 0) throw IntegrityViolation("missing data block with nonzero counter");
    if (out != nullptr) *out = zero_block();
  }
  stats_.read_latency.add(ready - now);
  mc_free_at_ = ready;
  return ready;
}

void BmtMemory::crash() {
  channel_.drain_all(std::max(mc_free_at_, wr_free_at_));
  mcache_.clear();
  mc_free_at_ = 0;
  wr_free_at_ = 0;  // BMT keeps its own decoupled write engine
}

void BmtMemory::recovery_persist_boundary(const char* stage) {
  if (injector_ != nullptr) injector_->on_recovery_persist(stage);
}

double BmtMemory::recovery_attempt_seconds() const {
  return static_cast<double>(recovery_reads_) * cfg_.secure.recovery_read_ns * 1e-9 +
         static_cast<double>(recovery_writes_) * cfg_.nvm.t_wr_ns * 1e-9;
}

void BmtMemory::note_recovery_crash(std::uint64_t boundary, const char* stage) {
  RecoveryAttempt attempt;
  attempt.nvm_reads = recovery_reads_;
  attempt.nvm_writes = recovery_writes_;
  attempt.seconds = recovery_attempt_seconds();
  attempt.crashed = true;
  attempt.crash_boundary = boundary;
  attempt.crash_stage = stage;
  attempt_log_.push_back(std::move(attempt));
  recovery_resume_ = true;
}

RecoveryResult BmtMemory::recover() {
  // The rebuild is a pure function of the durable image (stop-loss-bounded
  // counters + data HMACs), so a crashed attempt leaves a prefix of pokes
  // that the re-entry regenerates bit-identically: no resume cursor needed.
  if (!recovery_resume_) attempt_log_.clear();
  recovery_resume_ = false;
  recovery_reads_ = 0;
  recovery_writes_ = 0;
  RecoveryResult result;
  recover_impl(result);  // a nested RecoveryCrash propagates to the retry loop
  RecoveryAttempt attempt;
  attempt.nvm_reads = recovery_reads_;
  attempt.nvm_writes = recovery_writes_;
  attempt.seconds = recovery_attempt_seconds();
  attempt_log_.push_back(std::move(attempt));
  result.attempts = std::move(attempt_log_);
  attempt_log_.clear();
  result.nvm_reads = 0;
  result.nvm_writes = 0;
  result.seconds = 0.0;
  for (const RecoveryAttempt& a : result.attempts) {
    result.nvm_reads += a.nvm_reads;
    result.nvm_writes += a.nvm_writes;
    result.seconds += a.seconds;
  }
  return result;
}

void BmtMemory::recover_impl(RecoveryResult& result) {
  // Whole-tree reconstruction (the SCUE/BMT recovery profile the paper
  // argues against): recover EVERY counter block Osiris-style from the data
  // HMACs, rebuild every hash level bottom-up, compare the roots.
  std::vector<Block> level_images(geo_.level_count(0));
  std::vector<bool> touched(geo_.level_count(0), false);
  for (std::uint64_t leaf = 0; leaf < geo_.level_count(0); ++leaf) {
    const Addr laddr = counter_addr(leaf);
    ++recovery_reads_;
    GeneralCounterBlock cb = GeneralCounterBlock::decode({dev_.peek_block(laddr).data(), 56});
    for (std::size_t j = 0; j < kGeneralArity; ++j) {
      const std::uint64_t block = leaf * kGeneralArity + j;
      if (block >= geo_.data_blocks()) break;
      const Addr daddr = block * kBlockSize;
      ++recovery_reads_;
      if (!dev_.contains(daddr)) {
        if (cb.counters[j] != 0) {
          result.attack_detected = true;
          result.attack_detail = "data block erased during BMT recovery";
          return;
        }
        continue;
      }
      const Block ct = dev_.peek_block(daddr);
      const std::uint64_t tag = dev_.read_tag(daddr);
      bool found = false;
      for (std::uint64_t c = cb.counters[j]; c <= cb.counters[j] + kStopLoss; ++c) {
        if (cme_.data_mac(ct, daddr, c, 0) == tag) {
          cb.counters[j] = c;
          found = true;
          break;
        }
      }
      if (!found) {
        result.attack_detected = true;
        result.attacked_level = 0;
        result.attack_detail = "BMT counter not recoverable within the stop-loss window";
        return;
      }
    }
    const NodePayload payload = cb.encode();
    Block img{};
    std::memcpy(img.data(), payload.data(), payload.size());
    level_images[leaf] = img;
    // A leaf with all-zero counters was never written: its hash slot stays
    // the 0 "untouched" sentinel, mirroring the runtime updates.
    touched[leaf] = cb.parent_value() != 0 || img != zero_block();
    if (touched[leaf]) {
      recovery_persist_boundary("rebuild");
      dev_.poke_block(laddr, img);
      ++recovery_writes_;
      ++result.nodes_recovered;
    }
  }

  // Rebuild internal hash levels bottom-up.
  unsigned level = 0;
  while (level < geo_.top_level()) {
    const unsigned next = level + 1;
    std::vector<Block> parents(geo_.level_count(next));
    std::vector<bool> parent_touched(geo_.level_count(next), false);
    for (std::uint64_t p = 0; p < parents.size(); ++p) {
      Block img{};
      const NodeId pid{next, p};
      for (std::size_t j = 0; j < geo_.num_children(pid); ++j) {
        const std::uint64_t child = p * kTreeArity + j;
        if (!touched[child]) continue;  // untouched children keep slot 0
        const std::uint64_t h = hash_of(level_images[child], geo_.node_addr({level, child}));
        std::memcpy(img.data() + j * 8, &h, 8);
        parent_touched[p] = true;
      }
      parents[p] = img;
      if (parent_touched[p]) {
        recovery_persist_boundary("rebuild");
        dev_.poke_block(geo_.node_addr(pid), img);
        ++recovery_writes_;
        ++result.nodes_recovered;
      }
    }
    level_images = std::move(parents);
    touched = std::move(parent_touched);
    level = next;
  }
  for (std::uint64_t i = 0; i < level_images.size(); ++i) {
    // A zero register marks an untouched subtree (no write ever reached it).
    const std::uint64_t expect =
        touched[i] ? hash_of(level_images[i], geo_.node_addr({level, i})) : 0;
    if (expect != root_[i]) {
      result.attack_detected = true;
      result.attacked_level = static_cast<int>(level);
      result.attack_detail = "reconstructed BMT root mismatch";
      return;
    }
  }
}

}  // namespace steins
