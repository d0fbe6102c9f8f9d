#include "schemes/star.hpp"

#include <array>
#include <algorithm>
#include <cstring>

namespace steins {

namespace {

Block encode_bitmap(const std::array<std::uint64_t, 8>& bits) {
  Block b{};
  std::memcpy(b.data(), bits.data(), kBlockSize);
  return b;
}

std::array<std::uint64_t, 8> decode_bitmap(const Block& b) {
  std::array<std::uint64_t, 8> bits{};
  std::memcpy(bits.data(), b.data(), kBlockSize);
  return bits;
}

}  // namespace

StarMemory::StarMemory(const SystemConfig& cfg)
    : SecureMemoryBase(cfg),
      bitmap_cache_(cfg.secure.record_lines_cached * kBlockSize,
                    static_cast<unsigned>(cfg.secure.record_lines_cached)),
      tree_(mcache_.num_sets()) {
  STEINS_CHECK(cfg.counter_mode == CounterMode::kGeneral,
               "STAR is evaluated with general counter blocks only (paper §IV)");
  bitmap_base_ = geo_.aux_base();
  bitmap_lines_ = (geo_.total_nodes() + kNodesPerBitmapLine - 1) / kNodesPerBitmapLine;
  nonzero_lines_.assign((bitmap_lines_ + 63) / 64, 0);
  root_reg_ = rebuild_tree();
}

std::uint64_t StarMemory::rebuild_tree() {
  for (std::size_t set = 0; set < tree_.leaves(); ++set) tree_.touch(set);
  return settle_tree();
}

std::uint64_t StarMemory::reconstruct_counter(std::uint64_t stale, std::uint64_t lsbs) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kLsbBits) - 1;
  std::uint64_t rec = (stale & ~kMask) | (lsbs & kMask);
  if (rec < stale) rec += (kMask + 1);
  return rec & kCounter56Mask;
}

void StarMemory::update_bitmap(NodeId id, bool dirty, Cycle& now) {
  const std::uint64_t flat = geo_.offset_of(id);
  const std::uint64_t line = flat / kNodesPerBitmapLine;
  const std::uint64_t bit = flat % kNodesPerBitmapLine;
  const Addr laddr = bitmap_line_addr(line);

  auto* cached = bitmap_cache_.lookup(laddr, true);
  if (cached == nullptr) {
    Block img{};
    now = timed_read(laddr, now, &img);
    ++stats_.aux_reads;
    auto victim = bitmap_cache_.insert(laddr, true, BitmapLine{decode_bitmap(img)}, &cached);
    if (victim && victim->dirty) {
      now = timed_write(victim->addr, encode_bitmap(victim->payload.bits), now);
      ++stats_.aux_writes;
    }
  }
  auto& word = cached->payload.bits[bit / 64];
  const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
  if (dirty) {
    word |= mask;
    nonzero_lines_[line / 64] |= std::uint64_t{1} << (line % 64);
  } else {
    word &= ~mask;
  }
}

std::uint64_t StarMemory::compute_set_mac(std::size_t set) const {
  // MAC over the set's dirty nodes, sorted by address (paper §II-D: "STAR
  // needs to sort the dirty nodes in the same set by the addresses").
  // Runs once per touched set at every settle, so everything stays on the
  // stack: a set has at most `ways` dirty nodes and insertion sort beats
  // std::sort at that size.
  struct Entry {
    Addr addr;
    NodePayload payload;
  };
  constexpr std::size_t kMaxWays = 32;
  STEINS_CHECK(mcache_.ways() <= kMaxWays, "metadata cache ways exceed set-MAC buffer");
  std::array<Entry, kMaxWays> entries;
  std::size_t n = 0;
  mcache_.for_each_in_set(set, [&](const MetadataLine& line) {
    if (line.dirty) entries[n++] = {line.tag, line.payload.payload()};
  });
  for (std::size_t i = 1; i < n; ++i) {
    Entry e = entries[i];
    std::size_t j = i;
    for (; j > 0 && entries[j - 1].addr > e.addr; --j) entries[j] = entries[j - 1];
    entries[j] = e;
  }
  // Entry is exactly addr || payload with no padding, so the sorted array
  // is already the MAC message — no staging copy.
  static_assert(sizeof(Entry) == 8 + sizeof(NodePayload));
  return cme_.mac().mac64(
      {reinterpret_cast<const std::uint8_t*>(entries.data()), n * sizeof(Entry)});
}

void StarMemory::update_set_mac(std::size_t set, Cycle&) {
  // Sorting the set's dirty nodes plus the sequential cache-tree HMACs:
  // modification-path costs, charged to the write-latency side channel.
  // The host computes them once, when the root is latched.
  charge_tracking(mcache_.ways());
  for (unsigned level = 0; level < tree_.depth(); ++level) {
    charge_tracking(cfg_.secure.hash_latency_cycles, /*is_hash=*/true);
  }
  tree_.touch(set);
}

Cycle StarMemory::persist_node(SitNode& node, Cycle now) {
  std::uint64_t parent_ctr = 0;
  now = persist_with_self_increment(node, now, &parent_ctr);
  // Stash the parent counter's LSBs in the child's spare ECC bits; they
  // ride along with the node write (no extra traffic).
  dev_.write_tag2(geo_.node_addr(node.id), parent_ctr & ((std::uint64_t{1} << kLsbBits) - 1));
  // When the parent counter wraps its stored LSB window, write the parent
  // through so LSB splicing stays unambiguous (at most one carry).
  if (!geo_.is_top_level(node.id) && parent_ctr % (std::uint64_t{1} << kLsbBits) == 0) {
    const Addr paddr = geo_.node_addr(geo_.parent_of(node.id));
    if (MetadataLine* pl = mcache_.peek_mut(paddr); pl != nullptr && pl->dirty) {
      now = write_through_node(*pl, now);
    }
  }
  return now;
}

void StarMemory::on_node_modified(NodeId id, Cycle& now) {
  const std::size_t set = mcache_.set_index(geo_.node_addr(id));
  update_set_mac(set, now);
}

void StarMemory::on_node_dirtied(NodeId id, Cycle& now) {
  update_bitmap(id, true, now);
  update_set_mac(mcache_.set_index(geo_.node_addr(id)), now);
}

void StarMemory::on_node_cleaned(NodeId id, Cycle& now) {
  update_bitmap(id, false, now);
  update_set_mac(mcache_.set_index(geo_.node_addr(id)), now);
}

void StarMemory::on_data_written(Addr addr, std::uint64_t counter, Cycle&) {
  dev_.write_tag2(addr, counter & ((std::uint64_t{1} << kLsbBits) - 1));
}

void StarMemory::crash() {
  // Latch the root over the dirty sets before the cache is lost; a crash
  // with no modification since the last one leaves the register as it is.
  if (!tree_.settled()) root_reg_ = settle_tree();
  // Drain the write queue first: a queued (older) bitmap-line write must
  // not overwrite the newer ADR-resident copy flushed below.
  SecureMemoryBase::crash();
  // ADR flushes the cached bitmap lines.
  bitmap_cache_.for_each([&](SetAssocCache<BitmapLine>::Line& line) {
    if (line.dirty) dev_.poke_block(line.tag, encode_bitmap(line.payload.bits));
  });
  bitmap_cache_.clear();
  tree_.clear();
}

RecoveryResult StarMemory::recover() {
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

void StarMemory::recover_impl(RecoveryReport& result) {
  bool ecc_evidence = false;

  // Scan the multi-layer bitmap: the upper layer tells us which bitmap
  // lines are nonzero; read only those. A line whose content is lost to an
  // uncorrectable ECC fault falls back to taking every node it covers as a
  // candidate — a superset of the dirty bits it recorded.
  recovery_reads_ += (bitmap_lines_ + kNodesPerBitmapLine - 1) / kNodesPerBitmapLine;
  std::vector<NodeId> dirty_nodes;
  std::vector<std::pair<NodeId, bool>> candidates;  // (node, from_fallback)
  const auto scan_line = [&](std::uint64_t line) {
    ++recovery_reads_;
    bool dead = false;
    const Block raw = dev_.peek_corrected(bitmap_line_addr(line), &dead);
    if (dead) {
      ecc_evidence = true;
      result.tracking_degraded = true;
      const std::uint64_t first = line * kNodesPerBitmapLine;
      const std::uint64_t last = std::min<std::uint64_t>(first + kNodesPerBitmapLine,
                                                         geo_.total_nodes());
      for (std::uint64_t flat = first; flat < last; ++flat) {
        candidates.emplace_back(geo_.node_at_offset(static_cast<std::uint32_t>(flat)), true);
      }
      return;
    }
    const auto bits = decode_bitmap(raw);
    for (std::size_t w = 0; w < bits.size(); ++w) {
      std::uint64_t word = bits[w];
      while (word != 0) {
        const unsigned b = static_cast<unsigned>(__builtin_ctzll(word));
        word &= word - 1;
        const std::uint64_t flat = line * kNodesPerBitmapLine + w * 64 + b;
        if (flat < geo_.total_nodes()) {
          candidates.emplace_back(geo_.node_at_offset(static_cast<std::uint32_t>(flat)), false);
        }
      }
    }
  };
  for (std::uint64_t nw = 0; nw < nonzero_lines_.size(); ++nw) {
    std::uint64_t nword = nonzero_lines_[nw];
    while (nword != 0) {
      scan_line(nw * 64 + static_cast<unsigned>(__builtin_ctzll(nword)));
      nword &= nword - 1;
    }
  }

  // Reconstruct each candidate node: splice the parent-counter LSBs stored
  // in each persistent child onto the stale counters. Fallback candidates
  // are only installed when splicing changed something — a clean node
  // splices to itself, and installing it dirty would corrupt the set-MACs.
  for (const auto& [id, from_fallback] : candidates) {
    const Addr addr = geo_.node_addr(id);
    ++recovery_reads_;
    if (from_fallback && !dev_.contains(addr)) continue;  // never persisted
    bool dead = false;
    SitNode node = SitNode::from_block(id, false, dev_.peek_corrected(addr, &dead));
    if (dead) {
      // The stale base for LSB splicing is gone: the node and everything
      // under it cannot be re-verified.
      ecc_evidence = true;
      quarantine_node_subtree(id, QuarantineReason::kEccMeta);
      continue;
    }
    const SitNode stale = node;

    for (std::size_t j = 0; j < kTreeArity; ++j) {
      Addr child_addr;
      if (id.level == 0) {
        const std::uint64_t block = id.index * geo_.leaf_coverage() + j;
        if (block >= geo_.data_blocks()) break;
        child_addr = block * kBlockSize;
      } else {
        if (j >= geo_.num_children(id)) break;
        child_addr = geo_.node_addr(geo_.child_of(id, j));
      }
      ++recovery_reads_;
      if (!dev_.contains(child_addr)) continue;  // never written: counter 0
      node.gc.counters[j] = reconstruct_counter(node.gc.counters[j], dev_.read_tag2(child_addr));
    }
    if (from_fallback && node.gc.counters == stale.gc.counters) continue;

    if (mcache_.peek(addr) == nullptr) {
      mcache_.insert(addr, true, node);
      ++result.nodes_recovered;
    }
  }

  // Verify: rebuild every set-MAC and the cache-tree root, compare with the
  // non-volatile root register. With ECC losses in the walk the recovered
  // dirty set provably differs from the pre-crash one (quarantined nodes
  // are missing), so a mismatch is degradation, not an attack verdict.
  const std::uint64_t root = rebuild_tree();
  if (root != root_reg_) {
    if (!ecc_evidence) {
      result.attack_detected = true;
      result.attack_detail = "STAR cache-tree root mismatch: recovered dirty set corrupted";
      return;
    }
    result.tracking_degraded = true;
  }
  root_reg_ = root;
}

}  // namespace steins
