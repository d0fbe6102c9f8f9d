#include "schemes/steins.hpp"

#include <algorithm>
#include <cstring>

namespace steins {

namespace {

std::array<std::uint32_t, 16> decode_record(const Block& b) {
  std::array<std::uint32_t, 16> offsets{};
  std::memcpy(offsets.data(), b.data(), kBlockSize);
  return offsets;
}

/// Record the first attack observed during the walk; later ones are
/// secondary (localization reports the initial failure site).
void note_attack(RecoveryReport* r, int level, std::string detail) {
  if (r->attack_detected) return;
  r->attack_detected = true;
  r->attacked_level = level;
  r->attack_detail = std::move(detail);
}

}  // namespace

SteinsMemory::SteinsMemory(const SystemConfig& cfg)
    : SecureMemoryBase(cfg),
      record_cache_(cfg.secure.record_lines_cached * kBlockSize,
                    static_cast<unsigned>(cfg.secure.record_lines_cached)),
      lincs_(geo_.num_levels(), 0),
      nv_buffer_capacity_(cfg.secure.nv_buffer_bytes / 16) {
  STEINS_CHECK(geo_.num_levels() <= 8,
               "all LIncs must fit one 64 B NV register (paper §III-D)");
  STEINS_CHECK(cfg.update_policy == UpdatePolicy::kLazy,
               "Steins' counter generation is defined for the lazy update scheme");
  record_base_ = geo_.aux_base();
  record_lines_ =
      (mcache_.num_lines() + kOffsetsPerRecordLine - 1) / kOffsetsPerRecordLine;
  STEINS_CHECK(nv_buffer_capacity_ > 0, "NV parent buffer must hold at least one entry");
  // Resume-cursor region: one 64 KiB window just below the quarantine map.
  cursor_base_ = qmap_base_ - (Addr{1} << 16);
  cursor_capacity_ = ((std::size_t{1} << 16) / kBlockSize - 1) * kOffsetsPerRecordLine;
  STEINS_CHECK(record_base_ + record_lines_ * kBlockSize <= cursor_base_,
               "offset-record region must end below the recovery resume cursor");
}

// ---------------------------------------------------------------------------
// Runtime: offset records
// ---------------------------------------------------------------------------

void SteinsMemory::flush_record_line(Addr laddr, const RecordLine& line, Cycle& now) {
  if (line.modified == 0) return;
  // Record flushes triggered inside recovery (step-5 install evictions)
  // are durable writes of the recovery attempt: a persist boundary.
  if (recovering_) recovery_persist_boundary("record");
  // Merge only the modified 4-byte slots into the region: partial writes on
  // byte-addressable PCM; the unmodified slots are never read.
  Block cur = dev_.peek_block(laddr);
  int slots = 0;
  for (std::size_t s = 0; s < kOffsetsPerRecordLine; ++s) {
    if ((line.modified >> s) & 1) {
      std::memcpy(cur.data() + s * 4, &line.offsets[s], 4);
      ++slots;
    }
  }
  dev_.poke_block(laddr, cur);
  stats_.aux_write_bytes += static_cast<std::uint64_t>(slots) * 4;
  now += kPartialWriteCycles;
}

void SteinsMemory::write_record(NodeId id, Cycle& now) {
  const Addr addr = geo_.node_addr(id);
  const std::int64_t line_idx = mcache_.line_index(addr);
  STEINS_CHECK(line_idx >= 0, "dirtied node must be cached");
  const std::size_t rec_line = static_cast<std::size_t>(line_idx) / kOffsetsPerRecordLine;
  const std::size_t slot = static_cast<std::size_t>(line_idx) % kOffsetsPerRecordLine;
  const Addr laddr = record_line_addr(rec_line);

  auto* cached = record_cache_.lookup(laddr, true);
  if (cached == nullptr) {
    // Slots are overwritten unconditionally: no read-for-ownership needed.
    auto victim = record_cache_.insert(laddr, true, RecordLine{}, &cached);
    if (victim && victim->dirty) {
      flush_record_line(victim->addr, victim->payload, now);
    }
  }
  cached->payload.offsets[slot] = geo_.offset_of(id) + 1;  // 0 = empty
  cached->payload.modified = static_cast<std::uint16_t>(cached->payload.modified | (1u << slot));
}

void SteinsMemory::on_node_dirtied(NodeId id, Cycle& now) { write_record(id, now); }

// ---------------------------------------------------------------------------
// Runtime: counter generation, LIncs, NV parent buffer
// ---------------------------------------------------------------------------

std::optional<std::uint64_t> SteinsMemory::pending_parent_counter(NodeId id) const {
  const NodeId parent = geo_.parent_of(id);
  const std::size_t slot = geo_.slot_in_parent(id);
  // Newest entry wins (counters are monotone, so it is also the largest).
  std::optional<std::uint64_t> found;
  for (const auto& e : nv_buffer_) {
    if (e.parent == parent && e.slot == slot) found = e.counter;
  }
  return found;
}

void SteinsMemory::apply_buffered_entries_to(SitNode& node) {
  if (node.id.level == 0) return;  // buffer entries always target internal nodes
  for (auto it = nv_buffer_.begin(); it != nv_buffer_.end();) {
    if (it->parent == node.id) {
      if (it->counter <= node.gc.counters[it->slot]) {  // already absorbed
        it = nv_buffer_.erase(it);
        continue;
      }
      const std::uint64_t delta = it->counter - node.gc.counters[it->slot];
      node.gc.counters[it->slot] = it->counter;
      // Mirror into the cached copy if the caller handed us a detached one.
      if (MetadataLine* pl = mcache_.peek_mut(geo_.node_addr(node.id));
          pl != nullptr && &pl->payload != &node) {
        pl->payload.gc.counters[it->slot] = it->counter;
      }
      lincs_[node.id.level - 1] -= delta;
      lincs_[node.id.level] += delta;
      it = nv_buffer_.erase(it);
    } else {
      ++it;
    }
  }
}

void SteinsMemory::apply_buffer_entry(const BufferEntry& e, Cycle& now) {
  const FetchResult parent = fetch_node(e.parent, now);
  now = parent.ready;
  SitNode& pnode = parent.line->payload;
  // Counters are monotone: an entry at or below the current slot value was
  // already absorbed by a later inline update and must not regress it.
  if (e.counter <= pnode.gc.counters[e.slot]) return;
  const std::uint64_t delta = e.counter - pnode.gc.counters[e.slot];
  pnode.gc.counters[e.slot] = e.counter;
  const bool was_clean = !parent.line->dirty;
  parent.line->dirty = true;
  if (was_clean) on_node_dirtied(e.parent, now);
  const unsigned child_level = e.parent.level - 1;
  lincs_[child_level] -= delta;
  lincs_[child_level + 1] += delta;
}

void SteinsMemory::drain_nv_buffer(Cycle& now) {
  // An entry must stay visible in the buffer while it is being applied:
  // the parent fetch below can recursively verify this entry's child, and
  // that verification reads the pending counter from the buffer. Entries
  // are therefore applied in place and only erased afterwards.
  if (draining_) return;  // a drain can trigger persists that re-enter here
  draining_ = true;
  while (!nv_buffer_.empty()) {
    const BufferEntry e = nv_buffer_.front();
    apply_buffer_entry(e, now);
    // The apply chain may already have absorbed and erased it.
    const auto it = std::find_if(nv_buffer_.begin(), nv_buffer_.end(), [&](const BufferEntry& x) {
      return x.parent == e.parent && x.slot == e.slot && x.counter == e.counter;
    });
    if (it != nv_buffer_.end()) nv_buffer_.erase(it);
  }
  draining_ = false;
}

void SteinsMemory::before_read(Cycle& now) { drain_nv_buffer(now); }

Cycle SteinsMemory::persist_node(SitNode& node, Cycle now) {
  // Fold in any parent counters parked for this node before persisting it.
  apply_buffered_entries_to(node);

  // Counter generation (paper §III-B / Fig. 7): the parent counter is
  // generated from the node itself, so the HMAC needs no parent fetch.
  const std::uint64_t generated = node.parent_value();
  const Addr addr = geo_.node_addr(node.id);
  const NodePayload payload = node.payload();
  const std::uint64_t mac = cme_.mac().node_mac(payload, addr, generated);
  charge_hash(now);
  now = timed_write(addr, node.to_block(mac), now);
  ++stats_.meta_writes;

  const unsigned k = node.id.level;
  if (geo_.is_top_level(node.id)) {
    const std::uint64_t delta = generated - root_[node.id.index];
    root_[node.id.index] = generated;
    lincs_[k] -= delta;  // the root is persistent; no LInc above it
    return now;
  }

  const NodeId parent_id = geo_.parent_of(node.id);
  const std::size_t slot = geo_.slot_in_parent(node.id);
  ++stats_.mcache_accesses;
  if (MetadataLine* pl = mcache_.peek_mut(geo_.node_addr(parent_id))) {
    // Parent cached: apply immediately (Fig. 7, node A). Any pending buffer
    // entry for this slot is absorbed by this larger update — drop it so it
    // can neither regress the slot nor double-count at recovery.
    std::erase_if(nv_buffer_, [&](const BufferEntry& e) {
      return e.parent == parent_id && e.slot == slot;
    });
    const std::uint64_t delta = generated - pl->payload.gc.counters[slot];
    pl->payload.gc.counters[slot] = generated;
    const bool was_clean = !pl->dirty;
    pl->dirty = true;
    on_node_modified(parent_id, now);
    if (was_clean) on_node_dirtied(parent_id, now);
    lincs_[k] -= delta;
    lincs_[k + 1] += delta;
  } else {
    // Parent not cached: park the generated counter in the NV buffer and
    // finish the write (Fig. 7, node B) — no parent read on this path.
    // (During a drain the buffer may transiently exceed its capacity while
    // the in-place application walks it; it is empty again when the drain
    // returns.)
    if (nv_buffer_.size() >= nv_buffer_capacity_) drain_nv_buffer(now);
    nv_buffer_.push_back(BufferEntry{parent_id, slot, generated});
  }
  return now;
}

SecureMemoryBase::CounterBump SteinsMemory::bump_leaf_counter(MetadataLine& leaf,
                                                              std::size_t slot, Cycle& now) {
  CounterBump bump;
  SitNode& node = leaf.payload;
  bump.pv_before = node.parent_value();
  if (node.split) {
    const SitNode before = node;
    const auto r = node.sc.increment_skip(slot);  // skip-increment (§III-B1)
    bump.overflowed = r.overflowed;
    if (r.overflowed) {
      reencrypt_covered_blocks(before, node, slot, now);
      // Write-through on overflow keeps the major current in NVM, so
      // recovery never has to search major values (paper §II-D).
      now = write_through_node(leaf, now);
    }
    bump.enc_counter = node.sc.encryption_counter(slot);
    bump.aux = node.sc.major;
  } else {
    node.gc.increment(slot);
    bump.enc_counter = node.gc.counters[slot];
    // Osiris-style stop-loss: bounded trial range for leaf recovery.
    if (node.gc.counters[slot] % kStopLoss == 0) now = write_through_node(leaf, now);
  }
  bump.pv_after = node.parent_value();
  lincs_[0] += bump.pv_after - bump.pv_before;
  return bump;
}

// ---------------------------------------------------------------------------
// Crash & recovery
// ---------------------------------------------------------------------------

void SteinsMemory::crash() {
  // A nested recovery crash can unwind mid-drain; the guard must not stay
  // latched or post-recovery drains would silently no-op.
  draining_ = false;
  // Drain the write queue first: a queued (older) record-line write must
  // not overwrite the newer ADR-resident copy flushed below.
  SecureMemoryBase::crash();
  // ADR flushes the cached record lines (merging modified slots); the LIncs
  // register, the NV parent buffer, and the root register survive as-is.
  record_cache_.for_each([&](SetAssocCache<RecordLine>::Line& line) {
    if (line.dirty) {
      Cycle t = 0;
      flush_record_line(line.tag, line.payload, t);
    }
  });
  record_cache_.clear();
}

// ---------------------------------------------------------------------------
// Re-entrant recovery: resume cursor
// ---------------------------------------------------------------------------

void SteinsMemory::persist_recovery_cursor(const std::vector<std::vector<NodeId>>& by_level,
                                           bool degraded) {
  // Throw-before-poke: an armed crash at this boundary leaves the region
  // exactly as the previous attempt left it (or absent).
  recovery_persist_boundary("cursor");
  std::vector<std::uint32_t> offs;
  for (const auto& lvl : by_level) {
    for (const NodeId id : lvl) offs.push_back(geo_.offset_of(id) + 1);
  }
  std::uint32_t flags = degraded ? kCursorFlagDegraded : 0u;
  if (offs.size() > cursor_capacity_) {
    // Too many candidates for the window: persist only the overflow flag;
    // a re-entry falls back to the resident scan, which is a superset.
    flags |= kCursorFlagOverflow;
    offs.clear();
  }
  Block hdr = zero_block();
  const std::uint64_t magic = kCursorMagic;
  const std::uint32_t count = static_cast<std::uint32_t>(offs.size());
  std::memcpy(hdr.data(), &magic, 8);
  std::memcpy(hdr.data() + 8, &count, 4);
  std::memcpy(hdr.data() + 12, &flags, 4);
  dev_.poke_block(cursor_base_, hdr);
  ++recovery_writes_;
  for (std::size_t line = 0; line * kOffsetsPerRecordLine < offs.size(); ++line) {
    Block b = zero_block();
    const std::size_t lo = line * kOffsetsPerRecordLine;
    const std::size_t n = std::min(kOffsetsPerRecordLine, offs.size() - lo);
    std::memcpy(b.data(), offs.data() + lo, n * 4);
    dev_.poke_block(cursor_line_addr(line + 1), b);
    ++recovery_writes_;
  }
  recovery_cursor_pos_ = offs.size();
}

bool SteinsMemory::load_recovery_cursor(std::vector<std::uint32_t>* offsets, bool* degraded) {
  if (!dev_.contains(cursor_base_)) return false;
  ++recovery_reads_;
  bool dead = false;
  const Block hdr = dev_.peek_corrected(cursor_base_, &dead);
  std::uint64_t magic = 0;
  std::uint32_t count = 0;
  std::uint32_t flags = 0;
  if (!dead) {
    std::memcpy(&magic, hdr.data(), 8);
    std::memcpy(&count, hdr.data() + 8, 4);
    std::memcpy(&flags, hdr.data() + 12, 4);
  }
  if (dead || (magic != 0 && magic != kCursorMagic)) {
    // The cursor is self-written plain NVM: an unreadable or malformed
    // header means media loss or tampering. Degrade to the resident scan
    // (a superset of any candidate set the cursor could have held).
    *degraded = true;
    return true;
  }
  if (magic == 0) return false;  // cleared cursor: no prior attempt pending
  if ((flags & kCursorFlagOverflow) != 0) {
    *degraded = true;
    return true;
  }
  if ((flags & kCursorFlagDegraded) != 0) *degraded = true;
  for (std::size_t line = 0; line * kOffsetsPerRecordLine < count; ++line) {
    ++recovery_reads_;
    bool edead = false;
    const Block b = dev_.peek_corrected(cursor_line_addr(line + 1), &edead);
    if (edead) {
      *degraded = true;
      continue;
    }
    const std::size_t lo = line * kOffsetsPerRecordLine;
    const std::size_t n = std::min(kOffsetsPerRecordLine, std::size_t{count} - lo);
    for (std::size_t s = 0; s < n; ++s) {
      std::uint32_t o = 0;
      std::memcpy(&o, b.data() + s * 4, 4);
      if (o == 0 || o - 1 >= geo_.total_nodes()) {
        *degraded = true;  // corrupt entry: fall back rather than mis-index
        continue;
      }
      offsets->push_back(o);
    }
  }
  return true;
}

void SteinsMemory::clear_recovery_cursor() {
  if (!dev_.contains(cursor_base_)) return;
  recovery_persist_boundary("cursor");
  dev_.poke_block(cursor_base_, zero_block());
  ++recovery_writes_;
}

bool SteinsMemory::in_quarantined(const RecoveryCtx& ctx, NodeId id) {
  for (const auto& [ql, qi] : ctx.quarantined) {
    if (id.level > ql) continue;
    // kTreeArity = 8: indexes shrink by 3 bits per level climbed.
    if ((id.index >> (3 * (ql - id.level))) == qi) return true;
  }
  return false;
}

void SteinsMemory::quarantine_subtree_ctx(NodeId id, RecoveryCtx& ctx,
                                          QuarantineReason reason) {
  if (in_quarantined(ctx, id)) return;
  ctx.quarantined.emplace_back(id.level, id.index);
  ctx.linc_skip = true;  // the subtree's counter increases are unknowable
  quarantine_node_subtree(id, reason);
}

bool SteinsMemory::recovery_counters(NodeId id, RecoveryCtx& ctx, SitNode* out) {
  if (in_quarantined(ctx, id)) return false;
  const std::uint64_t key = flat_key(geo_, id);
  if (const SitNode* hit = ctx.recovered.find(key)) {
    *out = *hit;
    return true;
  }
  if (const SitNode* hit = ctx.clean_verified.find(key)) {
    *out = *hit;
    return true;
  }
  const Addr addr = geo_.node_addr(id);
  ++recovery_reads_;
  Block img;
  bool dead = false;
  const bool exists = dev_.peek_resident(addr, &img, nullptr, &dead);
  std::uint64_t stored = 0;
  SitNode node = SitNode::from_block(id, leaf_is_split() && id.level == 0, img, &stored);
  if (exists && dead) {
    quarantine_subtree_ctx(id, ctx, QuarantineReason::kEccMeta);
    return false;
  }

  std::uint64_t pc = 0;
  if (geo_.is_top_level(id)) {
    pc = root_[id.index];
  } else {
    SitNode parent;
    if (!recovery_counters(geo_.parent_of(id), ctx, &parent)) return false;
    pc = parent.gc.counters[geo_.slot_in_parent(id)];
  }
  if (exists) {
    const std::uint64_t mac = cme_.mac().node_mac(node.payload(), addr, pc);
    if (mac != stored) {
      note_attack(ctx.result, static_cast<int>(id.level),
                  "tampered SIT node detected by HMAC at level " + std::to_string(id.level));
      quarantine_subtree_ctx(id, ctx, QuarantineReason::kLost);
      return false;
    }
  } else if (pc != 0) {
    note_attack(ctx.result, static_cast<int>(id.level),
                "SIT node erased (missing with nonzero parent counter)");
    quarantine_subtree_ctx(id, ctx, QuarantineReason::kLost);
    return false;
  }
  ctx.clean_verified.get_or_create(key) = node;
  *out = node;
  return true;
}

void SteinsMemory::rebuild_from_children(NodeId id, const SitNode& stale, RecoveryCtx& ctx,
                                         SitNode* out) {
  SitNode node = stale;
  node.id = id;
  const std::size_t n = geo_.num_children(id);
  for (std::size_t j = 0; j < n; ++j) {
    const NodeId child = geo_.child_of(id, j);
    if (in_quarantined(ctx, child)) continue;  // keep the stale slot value
    const Addr caddr = geo_.node_addr(child);
    ++recovery_reads_;
    Block img;
    bool dead = false;
    if (!dev_.peek_resident(caddr, &img, nullptr, &dead)) {
      if (stale.gc.counters[j] != 0) {
        note_attack(ctx.result, static_cast<int>(child.level),
                    "child node erased during recovery");
        quarantine_subtree_ctx(child, ctx, QuarantineReason::kLost);
        continue;
      }
      node.gc.counters[j] = 0;
      continue;
    }
    std::uint64_t stored = 0;
    const SitNode cnode =
        SitNode::from_block(child, leaf_is_split() && child.level == 0, img, &stored);
    if (dead) {
      quarantine_subtree_ctx(child, ctx, QuarantineReason::kEccMeta);
      continue;  // stale slot value stays; the subtree's data is blocked
    }
    // Regenerate the parent counter from the child and verify the child's
    // HMAC with it (paper Fig. 6): detects tampering; replay is caught by
    // the LInc comparison afterwards.
    const std::uint64_t regenerated = cnode.parent_value();
    const std::uint64_t mac = cme_.mac().node_mac(cnode.payload(), caddr, regenerated);
    if (mac != stored) {
      note_attack(ctx.result, static_cast<int>(child.level),
                  "tampered child detected by HMAC at level " + std::to_string(child.level));
      quarantine_subtree_ctx(child, ctx, QuarantineReason::kLost);
      continue;
    }
    node.gc.counters[j] = regenerated;
  }
  *out = node;
}

void SteinsMemory::rebuild_leaf_from_data(NodeId id, const SitNode& stale, RecoveryCtx& ctx,
                                          SitNode* out) {
  SitNode node = stale;
  node.id = id;
  const std::uint64_t cover = geo_.leaf_coverage();
  const std::uint64_t first = id.index * cover;
  const std::uint64_t end = std::min(first + cover, geo_.data_blocks());
  // The covered lines are scattered through the device table: hint them a
  // few blocks ahead so the probes overlap the MAC work (host-side only).
  constexpr std::uint64_t kPrefetchAhead = 8;
  for (std::uint64_t b = first; b < end && b < first + kPrefetchAhead; ++b) {
    dev_.prefetch(b * kBlockSize);
  }
  const crypto::MacEngine& mac = cme_.mac();
  for (std::uint64_t block = first; block < end; ++block) {
    if (block + kPrefetchAhead < end) dev_.prefetch((block + kPrefetchAhead) * kBlockSize);
    const std::uint64_t j = block - first;
    const Addr daddr = block * kBlockSize;
    ++recovery_reads_;
    const std::uint64_t stale_ctr = node.split
                                        ? static_cast<std::uint64_t>(stale.sc.minors[j])
                                        : stale.gc.counters[j];
    Block ct;
    std::uint64_t tag = 0;
    bool dead = false;
    if (!dev_.peek_resident(daddr, &ct, &tag, &dead)) {
      if (stale_ctr != 0) {
        if (qmap_.read_blocked(daddr)) {
          // A previously retired line: its image was dropped with the remap.
          ctx.linc_skip = true;
          continue;
        }
        note_attack(ctx.result, 0, "data block erased during recovery");
        quarantine_data_line(daddr, QuarantineReason::kLost);
        ctx.linc_skip = true;
      }
      continue;  // never-written block: counter stays zero
    }
    if (dead) {
      // The line's content is gone; its counter increments since the stale
      // image are unknowable. Retire the line, keep the stale counter.
      quarantine_data_line(daddr, QuarantineReason::kEccData);
      ctx.linc_skip = true;
      continue;
    }
    const crypto::SipHash24::Prefix prefix = mac.data_mac_prefix(ct, daddr);
    bool found = false;
    if (node.split) {
      // Write-through-on-overflow keeps the major current in NVM, so only
      // the minor needs searching, and minors only grow within a major.
      const std::uint64_t major = stale.sc.major;
      for (std::uint64_t m = stale_ctr; m < kMinorMax; ++m) {
        const std::uint64_t ctr = (major << kMinorBits) | m;
        if (mac.data_mac_finish(prefix, ctr, major) == tag) {
          node.sc.minors[j] = static_cast<std::uint8_t>(m);
          found = true;
          break;
        }
      }
    } else {
      // Stop-loss bounds the search window to kStopLoss increments.
      for (std::uint64_t c = stale_ctr; c <= stale_ctr + kStopLoss; ++c) {
        if (mac.data_mac_finish(prefix, c, 0) == tag) {
          node.gc.counters[j] = c;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      note_attack(ctx.result, 0,
                  "data block HMAC matched no counter in the recovery window (tamper/replay)");
      quarantine_data_line(daddr, QuarantineReason::kLost);
      ctx.linc_skip = true;
    }
  }
  *out = node;
}

RecoveryReport SteinsMemory::recover() {
  RecoveryReport result;
  recovery_prologue();
  RecoveryCtx ctx;
  ctx.result = &result;
  try {
    recover_impl(ctx, result);
  } catch (const IntegrityViolation& e) {
    note_attack(&result, -1, e.what());
  } catch (const StatusError& e) {
    result.status = e.status();
  } catch (const std::exception& e) {
    result.status = Status(ErrorCode::kInternal, e.what());
  }
  if (ctx.record_fallback) result.tracking_degraded = true;
  if (ctx.linc_skip && result.linc_unverified.empty()) {
    // Losses before/outside the level walk: no level's sum was checkable.
    for (unsigned k = 0; k < geo_.num_levels(); ++k) result.linc_unverified.push_back(k);
  }
  // The attempt is complete (even an attack verdict is a completed attempt):
  // retire the resume cursor. May itself cross an armed boundary, in which
  // case the retry re-runs the whole — idempotent — recovery.
  clear_recovery_cursor();
  return finish_recovery(std::move(result));
}

void SteinsMemory::recover_impl(RecoveryCtx& ctx, RecoveryReport& result) {
  // Step 1: read the offset records to locate candidate dirty nodes
  // (a superset of the truly dirty set; clean entries are harmless, §III-H).
  std::vector<std::vector<NodeId>> by_level(geo_.num_levels());
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t line = 0; line < record_lines_; ++line) {
    ++recovery_reads_;
    bool dead = false;
    const Block rec = dev_.peek_corrected(record_line_addr(line), &dead);
    if (dead) {
      // The dirty-set hint for this line's nodes is gone; fall back to a
      // resident-metadata scan below (still a superset of the dirty set).
      ctx.record_fallback = true;
      continue;
    }
    const auto offsets = decode_record(rec);
    for (const std::uint32_t o : offsets) {
      if (o == 0) continue;
      // Stored offsets are offset_of(id)+1, so valid values are bounded by
      // the node count; anything else is a corrupted record line. Records
      // are only a superset hint, but a malformed entry means the ADR
      // domain lied — indistinguishable from tampering, so flag it rather
      // than index out of the tree.
      if (o - 1 >= geo_.total_nodes()) {
        note_attack(&result, -1, "corrupted offset record (node offset out of range)");
        ctx.record_fallback = true;
        continue;
      }
      const NodeId id = geo_.node_at_offset(o - 1);
      if (seen.insert(flat_key(geo_, id)).second) by_level[id.level].push_back(id);
    }
  }
  // Step 1b (re-entrant recovery): union the previous attempt's persisted
  // cursor. A crashed attempt may already have retired the NV parent buffer
  // and overwritten record slots (step-5 installs re-record their nodes),
  // so the cursor is the only complete candidate source on re-entry.
  std::vector<std::uint32_t> cursor_offs;
  bool cursor_degraded = false;
  if (load_recovery_cursor(&cursor_offs, &cursor_degraded) && cursor_degraded) {
    ctx.record_fallback = true;
  }

  if (ctx.record_fallback) {
    // Dirty-set tracking is degraded: take every resident SIT node as a
    // candidate. Clean candidates rebuild to themselves (delta 0) and only
    // cost reads; truly dirty nodes are guaranteed to be covered. The LInc
    // sums are not comparable against this candidate set.
    for (auto& lvl : by_level) lvl.clear();
    seen.clear();
    for (const Addr a : dev_.resident_blocks(geo_.meta_base(),
                                             geo_.meta_base() + geo_.total_nodes() * kBlockSize)) {
      const NodeId id = geo_.node_at(a);
      if (seen.insert(flat_key(geo_, id)).second) by_level[id.level].push_back(id);
    }
    ctx.linc_skip = true;
  }
  for (const std::uint32_t o : cursor_offs) {
    const NodeId id = geo_.node_at_offset(o - 1);
    if (seen.insert(flat_key(geo_, id)).second) by_level[id.level].push_back(id);
  }
  // Nodes targeted by parked parent counters are dirty too.
  for (const auto& e : nv_buffer_) {
    if (seen.insert(flat_key(geo_, e.parent)).second) by_level[e.parent.level].push_back(e.parent);
  }

  // Persist the resume cursor — the full candidate set — before any durable
  // recovery mutation. Crossing this boundary is the first persist of a
  // Steins recovery attempt.
  persist_recovery_cursor(by_level, ctx.record_fallback);

  // Fig. 8 step-5 LInc re-balancing, hoisted ahead of the walk and applied
  // for every level at once; the buffer is retired immediately after. The
  // buffered counter is already reflected in the persistent child, so only
  // the LIncs need re-balancing. Entries are applied in FIFO order against
  // a running per-slot value so multiple entries for one slot contribute
  // exactly their net increase, and entries already absorbed by an inline
  // update (counter <= stale) contribute nothing. Hoisting is what makes
  // re-entry sound: the adjustments are NV-register mutations with no
  // persist boundary among them, so a nested crash observes either the
  // buffer intact with the LIncs untouched (crash at the cursor boundary
  // or earlier) or the buffer empty with the LIncs fully adjusted — never
  // a double apply.
  {
    FlatMap<std::uint64_t> applied;  // (node,slot) -> value
    for (const auto& e : nv_buffer_) {
      const unsigned k = e.parent.level;
      const std::uint64_t slot_key = flat_key(geo_, e.parent) * kTreeArity + e.slot;
      std::uint64_t* value = applied.find(slot_key);
      if (value == nullptr) {
        const Addr paddr = geo_.node_addr(e.parent);
        ++recovery_reads_;
        bool dead = false;
        const Block pimg = dev_.peek_corrected(paddr, &dead);
        if (dead) {
          // Cannot compute this entry's net increase; the parent itself is
          // quarantined when the level walk reaches it.
          ctx.linc_skip = true;
          continue;
        }
        const SitNode stale = SitNode::from_block(e.parent, false, pimg);
        value = &applied.get_or_create(slot_key);
        *value = stale.gc.counters[e.slot];
      }
      if (e.counter <= *value) continue;  // absorbed by a later inline update
      const std::uint64_t delta = e.counter - *value;
      *value = e.counter;
      lincs_[k] += delta;
      lincs_[k - 1] -= delta;
    }
    nv_buffer_.clear();
  }

  // Steps 2-4 (Fig. 8): recover level by level, from the root downward.
  // Failures no longer abort the walk: the failing subtree is quarantined
  // (its data range is blocked and, for MAC-type failures, the attack is
  // flagged) and the walk salvages every sibling it can still verify.
  for (int k = static_cast<int>(geo_.top_level()); k >= 0; --k) {
    std::uint64_t level_sum = 0;
    for (const NodeId id : by_level[static_cast<std::size_t>(k)]) {
      if (in_quarantined(ctx, id)) continue;  // ancestor already written off
      // Read the stale version and verify it against its (already
      // recovered) parent or the root register.
      const Addr addr = geo_.node_addr(id);
      ++recovery_reads_;
      Block img;
      bool dead = false;
      const bool exists = dev_.peek_resident(addr, &img, nullptr, &dead);
      std::uint64_t stored = 0;
      const SitNode stale =
          SitNode::from_block(id, leaf_is_split() && id.level == 0, img, &stored);
      if (exists && dead) {
        quarantine_subtree_ctx(id, ctx, QuarantineReason::kEccMeta);
        continue;
      }
      std::uint64_t pc = 0;
      if (geo_.is_top_level(id)) {
        pc = root_[id.index];
      } else {
        SitNode parent;
        if (!recovery_counters(geo_.parent_of(id), ctx, &parent)) continue;
        pc = parent.gc.counters[geo_.slot_in_parent(id)];
      }
      if (exists) {
        if (cme_.mac().node_mac(stale.payload(), addr, pc) != stored) {
          note_attack(&result, k,
                      "stale node failed parent verification at level " + std::to_string(k));
          quarantine_subtree_ctx(id, ctx, QuarantineReason::kLost);
          continue;
        }
      } else if (pc != 0) {
        note_attack(&result, k, "stale node erased at level " + std::to_string(k));
        quarantine_subtree_ctx(id, ctx, QuarantineReason::kLost);
        continue;
      }

      // Rebuild the latest counters from the persistent children.
      SitNode rebuilt;
      if (k == 0) {
        rebuild_leaf_from_data(id, stale, ctx, &rebuilt);
      } else {
        rebuild_from_children(id, stale, ctx, &rebuilt);
      }

      level_sum += rebuilt.parent_value() - stale.parent_value();
      ctx.recovered.get_or_create(flat_key(geo_, id)) = rebuilt;
      ++result.nodes_recovered;
    }

    // Replay check (Fig. 8 steps 3-4 / 9-10): the summed counter increase
    // of this level must equal the stored LInc — replayed children yield a
    // smaller sum. With any quarantined loss the sum is no longer
    // comparable; the level is reported unverified instead.
    if (ctx.linc_skip) {
      result.linc_unverified.push_back(static_cast<unsigned>(k));
    } else if (level_sum != lincs_[static_cast<std::size_t>(k)]) {
      note_attack(&result, k,
                  "LInc mismatch at level " + std::to_string(k) +
                      " (replay attack or forged records)");
      return;
    }
  }

  // Step 5: install the recovered nodes into the metadata cache, marked
  // dirty (paper: "all the retrieved nodes will be marked as dirty"), and
  // rebuild the offset records for them. After a detected attack the tree
  // is not re-armed: the report carries the verdict and the caller decides.
  if (result.attack_detected) return;
  Cycle t = 0;
  for (int k = static_cast<int>(geo_.top_level()); k >= 0; --k) {
    for (const NodeId id : by_level[static_cast<std::size_t>(k)]) {
      if (in_quarantined(ctx, id)) continue;
      const SitNode* rec = ctx.recovered.find(flat_key(geo_, id));
      if (rec == nullptr) continue;
      const Addr addr = geo_.node_addr(id);
      if (mcache_.peek(addr) != nullptr) continue;
      auto victim = mcache_.insert(addr, true, *rec);
      if (victim && victim->dirty) {
        t = persist_detached(victim->payload, t);
        finish_clean(victim->payload.id, t);
      }
      on_node_dirtied(id, t);
    }
  }
}

}  // namespace steins
