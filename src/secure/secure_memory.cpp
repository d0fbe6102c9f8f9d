#include "secure/secure_memory.hpp"

#include <algorithm>
#include <sstream>

#include "fault/fault.hpp"
#include "schemes/anubis.hpp"
#include "schemes/scue.hpp"
#include "schemes/star.hpp"
#include "schemes/steins.hpp"
#include "schemes/writeback.hpp"

namespace steins {

double ExecStats::energy_nj(const SystemConfig& cfg) const {
  const double partial_blocks = static_cast<double>(aux_write_bytes) / kBlockSize;
  return static_cast<double>(nvm_reads()) * cfg.nvm.read_energy_nj +
         (static_cast<double>(data_writes + meta_writes + aux_writes) + partial_blocks) *
             cfg.nvm.write_energy_nj +
         static_cast<double>(hash_ops) * cfg.secure.hash_energy_nj +
         static_cast<double>(aes_ops) * cfg.secure.aes_energy_nj +
         static_cast<double>(mcache_accesses) * cfg.secure.cache_access_energy_nj;
}

std::string RecoveryReport::summary() const {
  std::ostringstream os;
  os << blocks_salvaged << " blocks salvaged, " << blocks_quarantined
     << " quarantined";
  if (subtrees_quarantined > 0) {
    os << " (" << subtrees_quarantined << " subtree"
       << (subtrees_quarantined == 1 ? "" : "s") << ")";
  }
  if (lines_quarantined > 0) os << ", " << lines_quarantined << " dead lines";
  if (tracking_degraded) os << ", dirty-set tracking degraded";
  if (!linc_unverified.empty()) {
    os << ", " << linc_unverified.size() << " LInc levels unverified";
  }
  return os.str();
}

std::string scheme_name(Scheme s, CounterMode mode) {
  const char* suffix = (mode == CounterMode::kSplit) ? "-SC" : "-GC";
  switch (s) {
    case Scheme::kWriteBack:
      return std::string("WB") + suffix;
    case Scheme::kAnubis:
      return "ASIT";
    case Scheme::kStar:
      return "STAR";
    case Scheme::kSteins:
      return std::string("Steins") + suffix;
    case Scheme::kScue:
      return "SCUE";
  }
  return "?";
}

SecureMemoryBase::SecureMemoryBase(const SystemConfig& cfg, std::uint64_t key_seed)
    : cfg_(cfg),
      geo_(cfg.nvm, cfg.counter_mode),
      dev_(cfg.nvm),
      channel_(cfg_, dev_),
      cme_(key_seed),
      mcache_(cfg.secure.metadata_cache.size_bytes, cfg.secure.metadata_cache.ways,
              cfg.secure.metadata_cache.block_bytes),
      root_(geo_.root_children(), 0),
      ft_(cfg.secure.ft),
      // The quarantine map persists in a reserved region just below the
      // device address limit, clear of every scheme's aux region.
      qmap_base_(dev_.address_limit() - (Addr{1} << 16)) {}

Cycle SecureMemoryBase::timed_read(Addr addr, Cycle now, Block* out) {
  if (recovering_) {
    ++recovery_reads_;
    if (out != nullptr) *out = dev_.peek_block(addr);
    return now;
  }
  return channel_.read(addr, now, out);
}

Cycle SecureMemoryBase::timed_write(Addr addr, const Block& data, Cycle now,
                                    LatencyAccumulator* acc, Cycle birth,
                                    const std::uint64_t* tag) {
  if (recovering_) {
    // Persist boundary: an armed nested crash fires BEFORE the poke, so an
    // aborted boundary leaves zero durable trace (block and tag are one
    // transaction — neither lands).
    recovery_persist_boundary("write");
    ++recovery_writes_;
    dev_.poke_block(addr, data);
    if (tag != nullptr) dev_.write_tag(addr, *tag);
    return now;
  }
  return channel_.write(addr, data, now, acc, birth, tag);
}

void SecureMemoryBase::recovery_persist_boundary(const char* stage) {
  if (injector_ != nullptr) injector_->on_recovery_persist(stage);
}

void SecureMemoryBase::on_node_modified(NodeId, Cycle&) {}
void SecureMemoryBase::on_node_dirtied(NodeId, Cycle&) {}
void SecureMemoryBase::on_node_cleaned(NodeId, Cycle&) {}
void SecureMemoryBase::before_read(Cycle&) {}
void SecureMemoryBase::on_data_written(Addr, std::uint64_t, Cycle&) {}

std::optional<std::uint64_t> SecureMemoryBase::pending_parent_counter(NodeId) const {
  return std::nullopt;
}

std::uint64_t SecureMemoryBase::verify_parent_counter(NodeId id, Cycle& now) {
  if (const auto pending = pending_parent_counter(id)) return *pending;
  if (geo_.is_top_level(id)) return root_[id.index];
  const FetchResult parent = fetch_node(geo_.parent_of(id), now);
  now = parent.ready;
  return parent.line->payload.gc.counters[geo_.slot_in_parent(id)];
}

SecureMemoryBase::FetchResult SecureMemoryBase::fetch_node(NodeId id, Cycle now) {
  const Addr addr = geo_.node_addr(id);
  ++stats_.mcache_accesses;
  if (MetadataLine* line = mcache_.lookup(addr)) {
    return {line, now + 1};
  }

  // If this node is mid-flush (evicted, HMAC being computed, write not yet
  // issued), its NVM image is stale: reinstate the live in-flight copy as a
  // dirty cached node instead of reloading the old image.
  for (auto it = inflight_persists_.rbegin(); it != inflight_persists_.rend(); ++it) {
    if ((*it)->id == id) {
      MetadataLine* line = nullptr;
      auto victim = mcache_.insert(addr, true, **it, &line);
      if (victim && victim->dirty) {
        now = persist_detached(victim->payload, now);
        finish_clean(victim->payload.id, now);
        line = mcache_.lookup(addr);
        if (line == nullptr) return fetch_node(id, now);
      }
      Cycle hook_now = now;
      on_node_modified(id, hook_now);  // tracking structures see it anew
      on_node_dirtied(id, hook_now);
      return {line, hook_now + 1};
    }
  }

  // Miss: the parent counter is the HMAC verification input, so resolve it
  // first (recursing toward the on-chip root on further misses).
  const std::uint64_t parent_ctr = verify_parent_counter(id, now);

  // Resolving the parent can evict dirty nodes, and flushing a victim whose
  // parent is `id` pulls `id` into the cache as a side effect — re-check
  // before inserting a duplicate line.
  if (MetadataLine* line = mcache_.lookup(addr)) {
    return {line, now + 1};
  }

  const bool exists = block_exists(addr);
  Block img{};
  Cycle t = timed_read(addr, now, &img);
  ++stats_.meta_reads;
  if (ft_.ecc_enabled && !recovering_ && dev_.has_ecc_faults() &&
      dev_.ecc_faulted(addr) && !channel_.queued(addr)) {
    t = resolve_node_ecc(id, addr, t, &img);
  }

  std::uint64_t stored = 0;
  const bool split = leaf_is_split() && id.level == 0;
  SitNode node = SitNode::from_block(id, split, img, &stored);
  if (exists) {
    const NodePayload payload = node.payload();
    const std::uint64_t mac = cme_.mac().node_mac(payload, addr, parent_ctr);
    charge_hash(t);
    if (mac != stored) {
      throw IntegrityViolation("SIT node HMAC mismatch at level " + std::to_string(id.level) +
                               " index " + std::to_string(id.index));
    }
  } else if (parent_ctr != 0) {
    // A never-written node is the all-zero initial state; its parent
    // counter must still be zero, otherwise the node image was erased.
    throw IntegrityViolation("missing SIT node with nonzero parent counter");
  }

  MetadataLine* inserted = nullptr;
  auto victim = mcache_.insert(addr, false, node, &inserted);
  if (victim && victim->dirty) {
    t = persist_detached(victim->payload, t);
    finish_clean(victim->payload.id, t);
    // The victim flush can recursively insert ancestors; in the (rare) case
    // that aged this node out of its set, re-fetch it.
    inserted = mcache_.lookup(addr);
    if (inserted == nullptr) return fetch_node(id, t);
  }
  return {inserted, t};
}

Cycle SecureMemoryBase::persist_with_self_increment(SitNode& node, Cycle now,
                                                    std::uint64_t* parent_ctr_out) {
  // Classic SIT lazy update (paper §II-C): bump the parent counter by one,
  // recompute this node's HMAC with the new parent counter, write it out.
  // Under the eager policy (ablation) the parent counter was already
  // advanced on the write path, so it is only read here.
  const bool eager = cfg_.update_policy == UpdatePolicy::kEager;
  std::uint64_t parent_ctr;
  if (geo_.is_top_level(node.id)) {
    if (!eager) root_[node.id.index] = (root_[node.id.index] + 1) & kCounter56Mask;
    parent_ctr = root_[node.id.index];
  } else if (eager) {
    const FetchResult parent = fetch_node(geo_.parent_of(node.id), now);
    now = parent.ready;
    parent_ctr = parent.line->payload.gc.counters[geo_.slot_in_parent(node.id)];
  } else {
    // Parent fetch is on the critical path here (unavoidable for the
    // baselines; Steins overrides persist_node to avoid it).
    const FetchResult parent = fetch_node(geo_.parent_of(node.id), now);
    now = parent.ready;
    const bool parent_was_clean = !parent.line->dirty;
    parent.line->payload.gc.increment(geo_.slot_in_parent(node.id));
    parent.line->dirty = true;
    on_node_modified(parent.line->payload.id, now);
    if (parent_was_clean) on_node_dirtied(parent.line->payload.id, now);
    parent_ctr = parent.line->payload.gc.counters[geo_.slot_in_parent(node.id)];
  }

  const Addr addr = geo_.node_addr(node.id);
  const NodePayload payload = node.payload();
  const std::uint64_t mac = cme_.mac().node_mac(payload, addr, parent_ctr);
  charge_hash(now);
  now = timed_write(addr, node.to_block(mac), now);
  ++stats_.meta_writes;
  if (parent_ctr_out != nullptr) *parent_ctr_out = parent_ctr;
  return now;
}

Cycle SecureMemoryBase::persist_detached(SitNode& node, Cycle now) {
  // Deregister on every exit: a typed error or a nested recovery crash can
  // unwind through persist_node, and a stale entry would point into the
  // caller's dead stack frame.
  inflight_persists_.push_back(&node);
  struct Deregister {
    std::vector<const SitNode*>& inflight;
    ~Deregister() { inflight.pop_back(); }
  } deregister{inflight_persists_};
  return persist_node(node, now);
}

void SecureMemoryBase::finish_clean(NodeId id, Cycle& now) {
  const MetadataLine* cur = mcache_.peek(geo_.node_addr(id));
  if (cur == nullptr || !cur->dirty) on_node_cleaned(id, now);
}

Cycle SecureMemoryBase::write_through_node(MetadataLine& line, Cycle now) {
  line.dirty = false;
  SitNode copy = line.payload;
  now = persist_detached(copy, now);
  finish_clean(copy.id, now);
  return now;
}

SecureMemoryBase::CounterBump SecureMemoryBase::bump_leaf_counter(MetadataLine& leaf,
                                                                  std::size_t slot, Cycle& now) {
  CounterBump bump;
  SitNode& node = leaf.payload;
  bump.pv_before = node.parent_value();
  if (node.split) {
    const SitNode before = node;
    const auto r = node.sc.increment_plain(slot);
    bump.overflowed = r.overflowed;
    if (r.overflowed) reencrypt_covered_blocks(before, node, slot, now);
    bump.enc_counter = node.sc.encryption_counter(slot);
    bump.aux = node.sc.major;
  } else {
    node.gc.increment(slot);
    bump.enc_counter = node.gc.counters[slot];
  }
  bump.pv_after = node.parent_value();
  return bump;
}

std::uint64_t SecureMemoryBase::leaf_enc_counter(const SitNode& leaf, std::size_t slot,
                                                 std::uint64_t* aux) const {
  if (leaf.split) {
    if (aux != nullptr) *aux = leaf.sc.major;
    return leaf.sc.encryption_counter(slot);
  }
  if (aux != nullptr) *aux = 0;
  return leaf.gc.counters[slot];
}

void SecureMemoryBase::reencrypt_covered_blocks(const SitNode& before, const SitNode& after,
                                                std::size_t skip_slot, Cycle& now) {
  // A split-counter minor overflow reset every minor: all covered data
  // blocks must be re-encrypted under their new counters (paper §II-B).
  STEINS_CHECK(before.split && after.split,
               "re-encryption requires split-counter leaves");
  const std::uint64_t first_block = before.id.index * geo_.leaf_coverage();
  for (std::size_t j = 0; j < geo_.leaf_coverage(); ++j) {
    if (j == skip_slot) continue;  // about to be rewritten by the caller
    const Addr addr = (first_block + j) * kBlockSize;
    if (!block_exists(addr)) continue;
    if (!qmap_.empty() && qmap_.read_blocked(addr)) continue;  // already lost
    Block ct;
    try {
      now = resilient_data_read(addr, now, &ct);
    } catch (const StatusError&) {
      continue;  // line died mid-sweep: quarantined, skip re-encryption
    }
    ++stats_.data_reads;
    const std::uint64_t old_ctr = before.sc.encryption_counter(j);
    const std::uint64_t new_ctr = after.sc.encryption_counter(j);
    const Block pt = cme_.decrypt(ct, addr, old_ctr);
    const Block nct = cme_.encrypt(pt, addr, new_ctr);
    charge_aes();
    charge_aes();
    const std::uint64_t tag = cme_.data_mac(nct, addr, new_ctr, after.sc.major);
    charge_hash(now);
    now = timed_write(addr, nct, now, nullptr, 0, &tag);
    ++stats_.data_writes;
    ++stats_.reencryptions;
  }
}

Cycle SecureMemoryBase::write_block(Addr addr, const Block& data, Cycle now) {
  Cycle t = std::max(now, mc_free_at_);
  tracking_penalty_ = 0;
  maybe_scrub(t);
  if (!qmap_.empty()) {
    check_write_allowed(addr);
    // A fresh write re-validates a remapped line: reads are good again.
    if (qmap_.note_rewrite(addr)) persist_qmap();
  }
  const std::uint64_t block = addr / kBlockSize;
  const NodeId leaf_id = geo_.leaf_of_data(block);
  const std::size_t slot = geo_.slot_of_data(block);

  const FetchResult leaf = fetch_node(leaf_id, t);
  t = leaf.ready;

  const bool was_clean = !leaf.line->dirty;
  const CounterBump bump = bump_leaf_counter(*leaf.line, slot, t);
  leaf.line->dirty = true;
  on_node_modified(leaf_id, t);
  if (was_clean) on_node_dirtied(leaf_id, t);

  if (cfg_.update_policy == UpdatePolicy::kEager) {
    // Eager SIT update (paper §II-C, ablation): propagate the increment up
    // the whole branch, caching and dirtying every ancestor.
    NodeId cur = leaf_id;
    while (!geo_.is_top_level(cur)) {
      const NodeId parent_id = geo_.parent_of(cur);
      const FetchResult parent = fetch_node(parent_id, t);
      t = parent.ready;
      parent.line->payload.gc.increment(geo_.slot_in_parent(cur));
      const bool parent_was_clean = !parent.line->dirty;
      parent.line->dirty = true;
      on_node_modified(parent_id, t);
      if (parent_was_clean) on_node_dirtied(parent_id, t);
      cur = parent_id;
    }
    root_[cur.index] = (root_[cur.index] + 1) & kCounter56Mask;
  }

  charge_aes();
  const Block ct = cme_.encrypt(data, addr, bump.enc_counter);
  const std::uint64_t tag = cme_.data_mac(ct, addr, bump.enc_counter, bump.aux);
  charge_hash(t);
  // The tag rides the queue with the ciphertext: the 64 B line and its
  // ECC-colocated MAC are one memory transaction, so a crash can never
  // persist one without the other (only tear them together).
  t = timed_write(addr, ct, t, nullptr, 0, &tag);
  ++stats_.data_writes;
  // Write latency: metadata front-end work + tracking-structure work +
  // queue acceptance + the cell programming time of this block (posted
  // writes complete at the device).
  if (!recovering_) {
    stats_.write_latency.add((t - now) + tracking_penalty_ + cfg_.nvm_write_cycles());
  }
  tracking_penalty_ = 0;
  on_data_written(addr, bump.enc_counter, t);

  mc_free_at_ = t;
  return t;
}

Cycle SecureMemoryBase::read_block(Addr addr, Cycle now, Block* out) {
  Cycle t = std::max(now, mc_free_at_);
  tracking_penalty_ = 0;  // tracking work on the read path is pipelined away
  maybe_scrub(t);
  if (!qmap_.empty()) check_read_allowed(addr);
  before_read(t);
  const std::uint64_t block = addr / kBlockSize;
  const NodeId leaf_id = geo_.leaf_of_data(block);
  const std::size_t slot = geo_.slot_of_data(block);

  const FetchResult leaf = fetch_node(leaf_id, t);
  const Cycle t_meta = leaf.ready;

  std::uint64_t aux = 0;
  const std::uint64_t ctr = leaf_enc_counter(leaf.line->payload, slot, &aux);

  // The data fetch and the OTP generation proceed in parallel (paper
  // §II-B): the decrypt latency is hidden behind the array read.
  const bool exists = block_exists(addr);
  Block ct{};
  const Cycle t_data = resilient_data_read(addr, t, &ct);
  ++stats_.data_reads;
  charge_aes();
  Cycle ready = std::max(t_data, t_meta + cfg_.secure.aes_latency_cycles);

  if (exists) {
    // Store-forwarded data must be checked against its queued tag, not the
    // stale tag of the image still in the array.
    std::uint64_t tag = dev_.read_tag(addr);
    channel_.peek_queued_tag(addr, &tag);
    const std::uint64_t mac = cme_.data_mac(ct, addr, ctr, aux);
    charge_hash(ready);
    if (mac != tag) {
      throw IntegrityViolation("data HMAC mismatch at block " + std::to_string(block));
    }
    if (out != nullptr) *out = cme_.decrypt(ct, addr, ctr);
  } else {
    if (ctr != 0) {
      throw IntegrityViolation("missing data block with nonzero counter");
    }
    if (out != nullptr) *out = zero_block();
  }

  stats_.read_latency.add(ready - now);
  mc_free_at_ = ready;
  return ready;
}

void SecureMemoryBase::crash() {
  // Power loss: the write queue and ADR domain drain to NVM (paper §III-A);
  // everything volatile is lost. Scheme subclasses flush their ADR-resident
  // structures (record lines, bitmap lines, NV buffer) before calling this.
  // With a fault injector installed, the drain goes through it: queued
  // writes may tear, drop, or reorder instead of landing intact.
  channel_.crash_drain_all(mc_free_at_);
  mcache_.clear();
  mc_free_at_ = 0;
}

void SecureMemoryBase::flush_all_metadata() {
  Cycle t = mc_free_at_;
  // Persisting a node dirties its parent, so iterate until no dirty line
  // remains (bounded by the tree height). Deferred parent updates are
  // settled first each round (Steins drains its NV buffer in before_read),
  // so a full flush leaves no pending state anywhere.
  bool any = true;
  while (any) {
    any = false;
    before_read(t);
    mcache_.for_each([&](MetadataLine& line) {
      if (line.dirty) {
        // Clear the dirty bit first and persist a copy: the parent fetch
        // inside persist_node may evict this very line.
        line.dirty = false;
        SitNode copy = line.payload;
        t = persist_detached(copy, t);
        finish_clean(copy.id, t);
        any = true;
      }
    });
  }
  mc_free_at_ = channel_.drain_all(t);
}

std::optional<SitNode> SecureMemoryBase::current_node_state(NodeId id) const {
  const Addr addr = geo_.node_addr(id);
  if (const MetadataLine* line = mcache_.peek(addr)) return line->payload;
  if (!dev_.contains(addr)) return std::nullopt;
  const Block img = dev_.peek_block(addr);
  return SitNode::from_block(id, leaf_is_split() && id.level == 0, img);
}

// ---------------------------------------------------------------------------
// Runtime fault tolerance: ECC retry, quarantine, patrol scrub, salvage
// ---------------------------------------------------------------------------

Cycle SecureMemoryBase::resilient_data_read(Addr addr, Cycle now, Block* out) {
  Cycle t = timed_read(addr, now, out);
  if (!ft_.ecc_enabled || recovering_ || !dev_.has_ecc_faults()) return t;
  // Store-forwarded data never touched the faulty array image.
  if (!dev_.ecc_faulted(addr) || channel_.queued(addr)) return t;
  unsigned attempt = 0;
  while (true) {
    const NvmDevice::EccRead r = dev_.read_block_ecc(addr, out);
    if (r == NvmDevice::EccRead::kClean) return t;
    if (r == NvmDevice::EccRead::kCorrected) {
      ++ft_stats_.corrected_reads;
      return t;
    }
    if (r == NvmDevice::EccRead::kUncorrectable ||
        attempt >= ft_.max_read_retries) {
      break;
    }
    ++ft_stats_.read_retries;
    t += ft_.retry_backoff_cycles << attempt;
    ++attempt;
  }
  ++ft_stats_.uncorrectable_reads;
  quarantine_data_line(addr, QuarantineReason::kEccData);
  throw StatusError(Status(
      ErrorCode::kUncorrectable,
      "uncorrectable ECC error at data block " + std::to_string(addr / kBlockSize)));
}

Cycle SecureMemoryBase::resolve_node_ecc(NodeId id, Addr addr, Cycle now, Block* img) {
  unsigned attempt = 0;
  while (true) {
    const NvmDevice::EccRead r = dev_.read_block_ecc(addr, img);
    if (r == NvmDevice::EccRead::kClean) return now;
    if (r == NvmDevice::EccRead::kCorrected) {
      ++ft_stats_.corrected_reads;
      return now;
    }
    if (r == NvmDevice::EccRead::kUncorrectable ||
        attempt >= ft_.max_read_retries) {
      break;
    }
    ++ft_stats_.read_retries;
    now += ft_.retry_backoff_cycles << attempt;
    ++attempt;
  }
  // The node's counters are gone: every data block under it becomes
  // unverifiable. Quarantine the whole subtree rather than serving
  // plaintext we cannot authenticate.
  ++ft_stats_.uncorrectable_reads;
  quarantine_node_subtree(id, QuarantineReason::kEccMeta);
  throw StatusError(Status(
      ErrorCode::kUncorrectable,
      "uncorrectable ECC error in SIT node at level " + std::to_string(id.level) +
          " index " + std::to_string(id.index)));
}

void SecureMemoryBase::check_read_allowed(Addr addr) {
  if (const QuarantineEntry* e = qmap_.blocking_read(addr)) {
    ++ft_stats_.quarantined_reads;
    throw StatusError(Status(
        ErrorCode::kQuarantined,
        "read of quarantined block " + std::to_string(addr / kBlockSize) + " (" +
            quarantine_reason_name(e->reason) + ")"));
  }
}

void SecureMemoryBase::check_write_allowed(Addr addr) {
  if (qmap_.write_blocked(addr)) {
    ++ft_stats_.quarantined_writes;
    throw StatusError(Status(
        ErrorCode::kQuarantined,
        "write to quarantined block " + std::to_string(addr / kBlockSize)));
  }
}

void SecureMemoryBase::quarantine_data_line(Addr addr, QuarantineReason reason) {
  if (qmap_.has_line(addr)) return;  // already quarantined
  // Try to retire the dead line to a spare first; without a spare the line
  // stays dead and even writes fail fast.
  const bool remapped = dev_.remap_line(addr);
  qmap_.add_line(addr, reason, remapped);
  ++ft_stats_.lines_quarantined;
  if (remapped) ++ft_stats_.lines_remapped;
  persist_qmap();
}

void SecureMemoryBase::quarantine_node_subtree(NodeId id, QuarantineReason reason) {
  const auto [lo, hi] = node_data_span(id);
  const std::size_t before = qmap_.size();
  qmap_.add_range(lo, hi, reason);
  if (qmap_.size() == before) return;
  ++ft_stats_.subtrees_quarantined;
  persist_qmap();
}

std::pair<Addr, Addr> SecureMemoryBase::node_data_span(NodeId id) const {
  std::uint64_t cover = geo_.leaf_coverage();
  for (unsigned k = 0; k < id.level; ++k) cover *= kTreeArity;
  const std::uint64_t lo = id.index * cover;
  const std::uint64_t hi = std::min<std::uint64_t>(geo_.data_blocks(), lo + cover);
  return {lo * kBlockSize, hi * kBlockSize};
}

void SecureMemoryBase::maybe_scrub(Cycle& now) {
  if (ft_.scrub_interval_accesses == 0 || recovering_ || in_scrub_) return;
  if (++scrub_accesses_ < ft_.scrub_interval_accesses) return;
  scrub_accesses_ = 0;
  scrub_epoch(now);
}

void SecureMemoryBase::scrub_epoch(Cycle& now) {
  if (in_scrub_ || recovering_) return;
  in_scrub_ = true;
  ++ft_stats_.scrub_passes;
  // Patrol resident data lines round-robin under a per-epoch budget; the
  // cursor survives epochs so every line is eventually visited.
  const std::vector<Addr> resident = dev_.resident_blocks(0, cfg_.nvm.capacity_bytes);
  if (!resident.empty()) {
    const std::size_t budget =
        std::min<std::size_t>(ft_.scrub_lines_per_epoch, resident.size());
    for (std::size_t i = 0; i < budget; ++i) {
      scrub_one(resident[(scrub_cursor_ + i) % resident.size()], now);
    }
    scrub_cursor_ = (scrub_cursor_ + budget) % resident.size();
  }
  in_scrub_ = false;
}

void SecureMemoryBase::scrub_one(Addr addr, Cycle& now) {
  ++ft_stats_.scrub_lines;
  // A queued write supersedes the array image; a quarantined line is
  // already handled.
  if (channel_.queued(addr) || (!qmap_.empty() && qmap_.read_blocked(addr))) return;
  bool dead = false;
  const Block img = dev_.peek_corrected(addr, &dead);
  if (dead) {
    ++ft_stats_.scrub_detected;
    quarantine_data_line(addr, QuarantineReason::kEccData);
    return;
  }
  if (dev_.ecc_faulted(addr)) {
    // Correctable fault caught on patrol: rewrite the corrected image in
    // place before a second hit escalates it to uncorrectable.
    dev_.poke_block(addr, img);
    ++ft_stats_.scrub_corrected;
    return;
  }
  if (!ft_.scrub_verify_macs) return;
  const std::uint64_t block = addr / kBlockSize;
  try {
    const FetchResult leaf = fetch_node(geo_.leaf_of_data(block), now);
    now = leaf.ready;
    std::uint64_t aux = 0;
    const std::uint64_t ctr =
        leaf_enc_counter(leaf.line->payload, geo_.slot_of_data(block), &aux);
    if (ctr == 0) return;  // never written through the secure path
    charge_hash(now);
    if (cme_.data_mac(img, addr, ctr, aux) != dev_.read_tag(addr)) {
      ++ft_stats_.scrub_detected;
      quarantine_data_line(addr, QuarantineReason::kMacMismatch);
    }
  } catch (const IntegrityViolation&) {
    ++ft_stats_.scrub_detected;  // covering metadata failed verification
  } catch (const StatusError&) {
    // Covering metadata died mid-patrol; the subtree is quarantined now.
  }
}

void SecureMemoryBase::note_recovery_crash(std::uint64_t boundary, const char* stage) {
  RecoveryAttempt a;
  a.nvm_reads = recovery_reads_;
  a.nvm_writes = recovery_writes_;
  a.seconds = recovery_attempt_seconds();
  a.crashed = true;
  a.crash_boundary = boundary;
  a.crash_stage = stage;
  a.resume_cursor = recovery_cursor_pos_;
  attempt_log_.push_back(std::move(a));
  recovering_ = false;
  recovery_resume_ = true;  // the next prologue keeps the attempt log
}

void SecureMemoryBase::recovery_prologue() {
  if (!recovery_resume_) {
    attempt_log_.clear();
    recovery_cursor_pos_ = 0;
  }
  recovery_resume_ = false;
  recovering_ = true;
  recovery_reads_ = 0;
  recovery_writes_ = 0;
  // Reload the persisted quarantine map: quarantines survive the crash. A
  // corrupted image fails its magic check and the in-memory state stands.
  qmap_.load(dev_, qmap_base_);
}

RecoveryReport SecureMemoryBase::finish_recovery(RecoveryReport r) {
  recovering_ = false;
  RecoveryAttempt final_attempt;
  final_attempt.nvm_reads = recovery_reads_;
  final_attempt.nvm_writes = recovery_writes_;
  final_attempt.seconds = recovery_attempt_seconds();
  final_attempt.resume_cursor = recovery_cursor_pos_;
  attempt_log_.push_back(std::move(final_attempt));
  r.attempts = std::move(attempt_log_);
  attempt_log_.clear();
  r.resume_cursor = recovery_cursor_pos_;
  // Totals span every attempt: an aborted attempt's reads/writes are real
  // recovery work (the fast-recovery-under-repeated-crashes axis).
  r.nvm_reads = 0;
  r.nvm_writes = 0;
  r.seconds = 0.0;
  for (const RecoveryAttempt& a : r.attempts) {
    r.nvm_reads += a.nvm_reads;
    r.nvm_writes += a.nvm_writes;
    r.seconds += a.seconds;
  }
  if (!qmap_.empty()) {
    std::uint64_t blocked = 0;
    const std::vector<Addr> resident = dev_.resident_blocks(0, cfg_.nvm.capacity_bytes);
    for (const Addr a : resident) {
      if (qmap_.read_blocked(a)) ++blocked;
    }
    r.blocks_quarantined = blocked;
    r.blocks_salvaged = resident.size() - blocked;
    r.lines_quarantined = qmap_.line_count();
    r.subtrees_quarantined = qmap_.range_count();
    for (const QuarantineEntry& e : qmap_.entries()) {
      if (!e.line) r.quarantined_ranges.emplace_back(e.lo, e.hi);
    }
  }
  return r;
}

std::unique_ptr<SecureMemory> make_scheme(Scheme scheme, const SystemConfig& cfg) {
  switch (scheme) {
    case Scheme::kWriteBack:
      return std::make_unique<WriteBackMemory>(cfg);
    case Scheme::kAnubis:
      return std::make_unique<AnubisMemory>(cfg);
    case Scheme::kStar:
      return std::make_unique<StarMemory>(cfg);
    case Scheme::kSteins:
      return std::make_unique<SteinsMemory>(cfg);
    case Scheme::kScue:
      if (cfg.counter_mode != CounterMode::kGeneral) {
        throw std::invalid_argument("SCUE does not employ split counter blocks");
      }
      return std::make_unique<ScueMemory>(cfg);
  }
  return nullptr;
}

}  // namespace steins
