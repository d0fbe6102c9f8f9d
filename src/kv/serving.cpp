#include "kv/serving.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "sim/multi_controller.hpp"

namespace steins::kv {

const char* mix_name(Mix m) {
  switch (m) {
    case Mix::kA: return "a";
    case Mix::kB: return "b";
    case Mix::kC: return "c";
    case Mix::kF: return "f";
  }
  return "?";
}

std::optional<Mix> parse_mix(const std::string& name) {
  if (name == "a" || name == "A") return Mix::kA;
  if (name == "b" || name == "B") return Mix::kB;
  if (name == "c" || name == "C") return Mix::kC;
  if (name == "f" || name == "F") return Mix::kF;
  return std::nullopt;
}

const char* routing_name(Routing r) {
  switch (r) {
    case Routing::kHash: return "hash";
    case Routing::kLoadAware: return "load-aware";
    case Routing::kInterleave: return "interleave";
  }
  return "?";
}

std::optional<Routing> parse_routing(const std::string& name) {
  if (name == "hash") return Routing::kHash;
  if (name == "load-aware" || name == "loadaware" || name == "load") {
    return Routing::kLoadAware;
  }
  if (name == "interleave") return Routing::kInterleave;
  return std::nullopt;
}

std::string_view client_value(std::uint64_t key, std::uint64_t version,
                              std::size_t value_bytes, ClientValueBuffer& buf) {
  STEINS_CHECK(value_bytes <= buf.size(), "client value overflows its record payload");
  // "c" + up to 20 key digits + "." + up to 20 version digits.
  char text[42];
  text[0] = 'c';
  char* p = std::to_chars(text + 1, text + 21, key).ptr;
  *p++ = '.';
  p = std::to_chars(p, text + sizeof text, version).ptr;
  const auto len = static_cast<std::size_t>(p - text);
  const std::size_t kept = std::min(len, value_bytes);
  std::memcpy(buf.data(), text, kept);
  std::fill(buf.data() + kept, buf.data() + value_bytes, '~');
  return std::string_view(buf.data(), value_bytes);
}

void validate_serving_config(const SystemConfig& cfg, const ServingConfig& scfg) {
  // Runs before anything divides by or allocates proportionally to the
  // shard count — every public entry point calls this ahead of
  // constructing MultiControllerMemory, whose constructor already
  // partitions capacity by the controller count.
  if (scfg.clients == 0) throw std::invalid_argument("serving needs >= 1 client");
  if (scfg.shards == 0) throw std::invalid_argument("serving needs >= 1 shard");
  if (scfg.slots == 0 || (scfg.slots & (scfg.slots - 1)) != 0) {
    throw std::invalid_argument("serving slots must be a power of two");
  }
  if (scfg.keys == 0) throw std::invalid_argument("serving needs >= 1 key");
  // Tables index their keys with 32-bit entries (the all-ones entry marks
  // an unused slot).
  if (scfg.keys >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("serving supports fewer than 2^32 - 1 keys");
  }
  if (scfg.epoch_ops == 0) throw std::invalid_argument("epoch_ops must be >= 1");
  if (scfg.value_bytes > kMaxValueBytes) {
    throw std::invalid_argument("value_bytes " + std::to_string(scfg.value_bytes) +
                                " exceeds the " + std::to_string(kMaxValueBytes) +
                                "-byte record payload");
  }
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  // A table spanning `ways` controllers addresses ways x one controller's
  // share of the capacity.
  const std::uint64_t ways = scfg.routing == Routing::kInterleave ? scfg.shards : 1;
  if (layout.base + layout.region_bytes() > cfg.nvm.capacity_bytes / scfg.shards * ways) {
    throw std::invalid_argument("KV table region exceeds its controllers' capacity");
  }
}

namespace {

double update_fraction(Mix m) {
  switch (m) {
    case Mix::kA: return 0.50;
    case Mix::kB: return 0.05;
    case Mix::kC: return 0.00;
    case Mix::kF: return 0.50;  // the update half is a read-modify-write
  }
  return 0.0;
}

std::uint64_t word_at(const Block& b, std::size_t offset) {
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + offset, 8);
  return w;
}

void put_word(Block& b, std::size_t offset, std::uint64_t w) {
  std::memcpy(b.data() + offset, &w, 8);
}

/// Record image of client_value(key, version, value_bytes), encoded in
/// place.
void encode_client_record(std::uint64_t key, std::uint64_t version,
                          std::size_t value_bytes, Block* out) {
  ClientValueBuffer buf;
  encode_record(key, version, client_value(key, version, value_bytes, buf), out);
}

void fnv_fold(std::uint64_t& h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
}

/// Epoch-local op index meaning "shared group-commit flush, attributed to
/// no single op" (its service shows up in makespan and the flush columns,
/// not in a client's latency).
constexpr std::uint32_t kNoOp = 0xffffffffu;
constexpr std::uint64_t kNoStop = ~std::uint64_t{0};
/// Slot -> key-entry value of a slot no key occupies.
constexpr std::uint32_t kNoEntry = 0xffffffffu;
/// Interleave granularity of a table spanning several controllers (the
/// MultiControllerMemory default).
constexpr std::size_t kInterleaveBytes = 4096;

/// One resolved access of a controller's schedule. Addresses are LOCAL to
/// that controller (mapped when planned). `seq` is the global emission
/// order — the crash-boundary granularity. No block image rides along;
/// `word`/`version` say what the access reads or writes:
///   kCommitRead   word = the commit word the read must observe, at byte
///                 `offset` of the block
///   kRecordRead   word = key, version = the record version it must observe
///   kRecordWrite  word = key, version = the version written (the image is
///                 encoded at replay)
///   kCommitWrite  word = index of its block image in the lane's `images`
struct PlannedAccess {
  enum Kind : std::uint8_t { kCommitRead, kRecordRead, kRecordWrite, kCommitWrite };
  Addr addr = 0;
  std::uint64_t seq = 0;
  std::uint64_t word = 0;
  std::uint64_t version = 0;
  Cycle service = 0;
  std::uint32_t op = kNoOp;   // epoch-local op index
  std::uint32_t offset = 0;
  Kind kind = kCommitRead;
};
static_assert(sizeof(PlannedAccess) <= 56, "schedule entries stay compact");

struct OpPlan {
  std::uint32_t client = 0;
  bool is_update = false;
  bool shed = false;
};

struct Client {
  Xoshiro256 rng{1};
  LatencyHistogram read_lat;
  LatencyHistogram update_lat;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
};

/// Where a table address lands: its controller and the local address.
struct Place {
  unsigned ctrl;
  Addr addr;
};

/// One KV table (shard) and its scheduler-side state. It spans `ways`
/// controllers from `first`: one for kHash/kLoadAware, all of them for
/// kInterleave. Commit-word state is kept per key: entry i of `media`,
/// `logical`, `durable` and `pending` belongs to keys[i], and `entry` maps
/// a slot to its key's entry (kNoEntry: unused slot, commit word 0).
struct Table {
  unsigned first = 0;
  unsigned ways = 1;
  std::vector<std::uint64_t> keys;       // keys routed here (ascending)
  std::vector<std::uint32_t> entry;      // slot -> key entry
  std::vector<std::uint64_t> media;      // commit words as scheduled on media
  std::vector<std::uint64_t> logical;    // media + buffered window
  std::vector<std::uint64_t> durable;    // commit writes below stop_seq only
  std::vector<char> pending;             // commit word buffered in the window
  std::vector<std::size_t> pending_slots;
  std::uint64_t admitted = 0;            // this epoch
  std::uint64_t batched = 0;             // commit words coalesced, lifetime
  ShardServingStats stats;

  /// Commit word of `slot` in the per-key `words` (0 for an unused slot).
  std::uint64_t word(const std::vector<std::uint64_t>& words, std::size_t slot) const {
    const std::uint32_t e = entry[slot];
    return e == kNoEntry ? 0 : words[e];
  }

  Place place(Addr a) const {
    // Per-shard tables map to themselves; skip the interleave's 64-bit
    // division on every planned access of the sharded serving path.
    if (ways == 1) return {first, a};
    return {first + MultiControllerMemory::route(a, kInterleaveBytes, ways),
            MultiControllerMemory::local_addr(a, kInterleaveBytes, ways)};
  }
};

/// One controller's epoch queue and timeline. Commit-block images are
/// snapshotted here when their window flushes: the table's logical words
/// move on before the replay writes them.
struct Lane {
  std::vector<PlannedAccess> queue;
  std::vector<Block> images;
  Cycle now = 0;
};

/// Everything a crash harness needs to diff recovery against.
struct EngineRun {
  ServingResult result;
  std::uint64_t total_accesses = 0;
  std::vector<Table> tables;  // final scheduler state (durable, keys, entry)
};

/// Key -> table routing. kInterleave has one table; kHash scatters by
/// multiplicative hash (top bits, decorrelated from home_slot's bits);
/// kLoadAware assigns keys in descending expected Zipf weight to the
/// least-loaded shard. Every table is capacity guarded at half-full so
/// linear probing stays short.
std::vector<std::uint32_t> route_keys(const ServingConfig& scfg) {
  const std::size_t cap = scfg.slots / 2;
  std::vector<std::uint32_t> shard_of(scfg.keys, 0);
  if (scfg.routing == Routing::kInterleave) {
    if (scfg.keys > cap) {
      throw std::invalid_argument("keys must keep the interleaved table at most half full");
    }
    return shard_of;
  }
  std::vector<std::size_t> counts(scfg.shards, 0);
  if (scfg.routing == Routing::kHash) {
    for (std::uint64_t key = 0; key < scfg.keys; ++key) {
      const auto s = static_cast<std::uint32_t>(
          ((key * 0x9e3779b97f4a7c15ULL) >> 49) % scfg.shards);
      if (counts[s] >= cap) {
        throw std::invalid_argument(
            "hash routing overflowed a shard table; raise slots or use "
            "load-aware routing");
      }
      shard_of[key] = s;
      ++counts[s];
    }
    return shard_of;
  }
  // Expected access weight per key: the Zipf pmf over ranks, folded through
  // the rank -> key scatter (several ranks can share a key when the scatter
  // is non-injective mod keys).
  std::vector<double> weight(scfg.keys, 0.0);
  for (std::uint64_t rank = 0; rank < scfg.keys; ++rank) {
    const std::uint64_t key = (rank * 0x9e3779b97f4a7c15ULL) % scfg.keys;
    weight[key] += std::pow(static_cast<double>(rank + 1), -scfg.zipf_s);
  }
  std::vector<std::uint64_t> order(scfg.keys);
  for (std::uint64_t k = 0; k < scfg.keys; ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });
  std::vector<double> load(scfg.shards, 0.0);
  for (const std::uint64_t key : order) {
    std::size_t best = scfg.shards;  // invalid
    for (std::size_t s = 0; s < scfg.shards; ++s) {
      if (counts[s] >= cap) continue;
      if (best == scfg.shards || load[s] < load[best]) best = s;
    }
    if (best == scfg.shards) {
      throw std::invalid_argument(
          "keys exceed the shards' admission-guarded table capacity");
    }
    shard_of[key] = static_cast<std::uint32_t>(best);
    load[best] += weight[key];
    ++counts[best];
  }
  return shard_of;
}

/// The whole engine: schedule resolution + (optionally) parallel replay.
/// `mem` == nullptr plans only (no memory execution, no preload); stop_seq
/// caps execution at the crash boundary — accesses with seq >= stop_seq
/// are scheduled for durable-state bookkeeping but never issued.
EngineRun run_engine(const SystemConfig& cfg, const ServingConfig& scfg,
                     std::uint64_t stop_seq, MultiControllerMemory* mem) {
  validate_serving_config(cfg, scfg);
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  const std::size_t nblocks =
      (scfg.slots + KvLayout::kWordsPerCommitBlock - 1) / KvLayout::kWordsPerCommitBlock;

  const bool interleave = scfg.routing == Routing::kInterleave;
  const std::vector<std::uint32_t> table_of = route_keys(scfg);
  std::vector<Table> tables(interleave ? 1 : scfg.shards);
  for (std::uint32_t t = 0; t < tables.size(); ++t) {
    Table& tb = tables[t];
    tb.first = interleave ? 0 : t;
    tb.ways = interleave ? scfg.shards : 1;
    tb.entry.assign(scfg.slots, kNoEntry);
  }
  std::vector<Lane> lanes(scfg.shards);
  // Slot assignment: per-table linear probing in ascending key order, so
  // the table image is independent of the routing policy's assignment
  // order.
  std::vector<std::size_t> slot_of(scfg.keys, 0);
  std::vector<std::uint32_t> entry_of(scfg.keys, 0);
  for (std::uint64_t key = 0; key < scfg.keys; ++key) {
    Table& tb = tables[table_of[key]];
    std::size_t s = layout.home_slot(key);
    while (tb.entry[s] != kNoEntry) s = (s + 1) & (scfg.slots - 1);
    const auto e = static_cast<std::uint32_t>(tb.keys.size());
    tb.entry[s] = e;
    slot_of[key] = s;
    entry_of[key] = e;
    tb.keys.push_back(key);
    ++tb.stats.keys;
  }

  // Preload every table's records + commit blocks, each table on one
  // timeline (spanning its controllers).
  const std::uint64_t preload_word = CommitWord{1, 0, true}.encode();
  for (Table& tb : tables) {
    const std::size_t nkeys = tb.keys.size();
    tb.media.assign(nkeys, preload_word);
    tb.logical.assign(nkeys, preload_word);
    tb.durable.assign(nkeys, preload_word);
    tb.pending.assign(nkeys, 0);
    if (mem == nullptr) continue;
    Cycle t = 0;
    const auto write = [&](Addr addr, const Block& img) {
      const Place p = tb.place(addr);
      t = mem->controller(p.ctrl).write_block(p.addr, img, t);
      mem->note_frontier(p.ctrl, t);
    };
    Block img{};
    for (const std::uint64_t key : tb.keys) {
      encode_client_record(key, 1, scfg.value_bytes, &img);
      write(layout.record_addr(slot_of[key], 0), img);
    }
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      const std::size_t first = blk * KvLayout::kWordsPerCommitBlock;
      const std::size_t n =
          std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
      bool any = false;
      img = Block{};
      for (std::size_t w = 0; w < n; ++w) {
        const std::uint64_t word = tb.word(tb.media, first + w);
        put_word(img, w * 8, word);
        any = any || word != 0;
      }
      if (any) write(layout.commit_block_addr(first), img);
    }
  }
  if (mem != nullptr) {
    for (unsigned c = 0; c < scfg.shards; ++c) mem->controller(c).stats().reset();
  }
  const Cycle start = mem != nullptr ? mem->max_frontier() : 0;
  // Sized once per call: an op plans at most three accesses plus, across
  // the epoch, one commit write per update, so no queue regrows.
  const std::uint64_t epoch_cap = std::min(scfg.epoch_ops, scfg.ops);
  for (Lane& lane : lanes) {
    lane.now = start;
    lane.queue.reserve(4 * epoch_cap);
    lane.images.reserve(epoch_cap);
  }

  std::vector<Client> clients(scfg.clients);
  for (unsigned i = 0; i < scfg.clients; ++i) {
    clients[i].rng = Xoshiro256(derive_stream_seed(scfg.seed, i));
  }
  const ZipfSampler sampler(static_cast<std::size_t>(scfg.keys), scfg.zipf_s);
  const double upd_frac = update_fraction(scfg.mix);

  std::uint64_t next_seq = 0;
  LatencyHistogram batch_sizes;

  // Queue a planned access (table address) at its controller.
  const auto emit = [&](const Table& tb, PlannedAccess a) -> Lane& {
    const Place p = tb.place(a.addr);
    a.addr = p.addr;
    Lane& lane = lanes[p.ctrl];
    lane.queue.push_back(a);
    return lane;
  };

  // Flush a table's group-commit window: one commit-block write per dirty
  // block (ascending), its image snapshotted from the logical words. The
  // window's size is one batch-distribution sample.
  const auto flush_window = [&](Table& tb, std::uint32_t attribute_op) {
    if (tb.pending_slots.empty()) return;
    std::sort(tb.pending_slots.begin(), tb.pending_slots.end());
    std::size_t prev_block = ~std::size_t{0};
    for (const std::size_t slot : tb.pending_slots) {
      tb.pending[tb.entry[slot]] = 0;
      const std::size_t block = slot / KvLayout::kWordsPerCommitBlock;
      if (block == prev_block) continue;
      prev_block = block;
      const std::size_t first = block * KvLayout::kWordsPerCommitBlock;
      const std::size_t n =
          std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
      PlannedAccess w;
      w.addr = layout.commit_block_addr(first);
      w.seq = next_seq++;
      w.op = attribute_op;
      w.kind = PlannedAccess::kCommitWrite;
      Lane& lane = emit(tb, w);
      lane.queue.back().word = lane.images.size();
      Block& img = lane.images.emplace_back();
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t e = tb.entry[first + i];
        if (e == kNoEntry) continue;
        put_word(img, i * 8, tb.logical[e]);
        tb.media[e] = tb.logical[e];
        if (w.seq < stop_seq) tb.durable[e] = tb.logical[e];
      }
      ++tb.stats.commit_writes;
    }
    batch_sizes.add(tb.pending_slots.size());
    tb.batched += tb.pending_slots.size();
    ++tb.stats.commit_flushes;
    tb.pending_slots.clear();
  };

  // Replay one controller's queue, validating every read against the
  // schedule. Queues are disjoint; the ShardGang barrier is the only
  // synchronization.
  const auto replay = [&](std::size_t c) {
    if (mem == nullptr) return;
    Lane& lane = lanes[c];
    MultiControllerMemory::ShardLease lease(*mem, static_cast<unsigned>(c));
    SecureMemory& ctrl = lease.mem();
    Cycle now = lane.now;
    Block b{};
    for (PlannedAccess& a : lane.queue) {
      if (a.seq >= stop_seq) break;
      Cycle done = now;
      switch (a.kind) {
        case PlannedAccess::kRecordWrite:
          encode_client_record(a.word, a.version, scfg.value_bytes, &b);
          done = ctrl.write_block(a.addr, b, now);
          break;
        case PlannedAccess::kCommitWrite:
          done = ctrl.write_block(a.addr, lane.images[a.word], now);
          break;
        case PlannedAccess::kCommitRead:
          done = ctrl.read_block(a.addr, now, &b);
          if (word_at(b, a.offset) != a.word) {
            throw std::logic_error(
                "serving replay read a commit word diverging from the schedule");
          }
          break;
        case PlannedAccess::kRecordRead:
          done = ctrl.read_block(a.addr, now, &b);
          if (!record_matches(b, a.word, a.version, scfg.value_bytes)) {
            throw std::logic_error("serving replay read a corrupt or stale record");
          }
          break;
      }
      a.service = done - now;
      now = done;
    }
    lane.now = now;
    lease.note_frontier(now);
  };

  ShardGang gang(scfg.shards, mem != nullptr ? scfg.jobs : 1);

  std::vector<OpPlan> plans;
  std::vector<Cycle> op_lat;
  plans.reserve(epoch_cap);
  op_lat.reserve(epoch_cap);
  ServingResult res;
  res.offered_ops = scfg.ops;
  for (std::uint64_t done_ops = 0; done_ops < scfg.ops;) {
    const std::uint64_t epoch_ops = std::min(scfg.epoch_ops, scfg.ops - done_ops);
    plans.clear();
    for (Lane& lane : lanes) {
      lane.queue.clear();
      lane.images.clear();
    }
    for (Table& tb : tables) tb.admitted = 0;

    // Phase 1: resolve the epoch's schedule.
    for (std::uint64_t e = 0; e < epoch_ops; ++e) {
      const auto op_idx = static_cast<std::uint32_t>(e);
      const auto cid = static_cast<std::uint32_t>((done_ops + e) % scfg.clients);
      Client& c = clients[cid];
      // Zipf rank -> key, scattered so the hot set spans controllers.
      const std::uint64_t rank = sampler.sample(c.rng);
      const std::uint64_t key = (rank * 0x9e3779b97f4a7c15ULL) % scfg.keys;
      const bool is_update = upd_frac > 0.0 && c.rng.chance(upd_frac);
      Table& tb = tables[table_of[key]];

      // Bounded admission: overload sheds the op into a typed degraded
      // verdict. The client RNG was already advanced identically, so the
      // rest of the schedule is unchanged by the shed.
      if (scfg.queue_depth != 0 && tb.admitted >= scfg.queue_depth) {
        ++tb.stats.shed;
        tb.stats.degraded = true;
        plans.push_back(OpPlan{cid, is_update, true});
        continue;
      }
      ++tb.admitted;
      ++tb.stats.ops;
      plans.push_back(OpPlan{cid, is_update, false});

      const std::size_t slot = slot_of[key];
      const std::uint32_t k = entry_of[key];
      const CommitWord word = CommitWord::decode(tb.logical[k]);
      if (word.empty() || !word.live) {
        throw std::logic_error("serving scheduled an op on a dead slot");
      }

      if (is_update && tb.pending[k]) {
        // Second update to a buffered slot: its record write would target
        // the replica the DURABLE commit word still points at. Force the
        // window out first so the two-replica invariant holds at every
        // crash boundary.
        flush_window(tb, kNoOp);
      }

      if (!tb.pending[k]) {
        // Commit read from media; a buffered slot skips this (the word is
        // served from the table's volatile commit buffer — the group
        // commit coalescing win on the read path).
        PlannedAccess commit_read;
        commit_read.addr = layout.commit_block_addr(slot);
        commit_read.seq = next_seq++;
        commit_read.op = op_idx;
        commit_read.kind = PlannedAccess::kCommitRead;
        commit_read.offset = static_cast<std::uint32_t>(layout.commit_word_offset(slot));
        commit_read.word = tb.media[k];
        emit(tb, commit_read);
      }

      // Re-read the word: the forced flush above never changes it, but
      // keep the single source of truth obvious.
      const CommitWord cur = CommitWord::decode(tb.logical[k]);
      if (!is_update || scfg.mix == Mix::kF) {
        // Plain read, or the read half of a read-modify-write.
        PlannedAccess rec_read;
        rec_read.addr = layout.record_addr(slot, cur.replica);
        rec_read.seq = next_seq++;
        rec_read.op = op_idx;
        rec_read.kind = PlannedAccess::kRecordRead;
        rec_read.word = key;
        rec_read.version = cur.version;
        emit(tb, rec_read);
      }
      if (is_update) {
        const int replica = 1 - cur.replica;
        PlannedAccess rec_write;
        rec_write.addr = layout.record_addr(slot, replica);
        rec_write.seq = next_seq++;
        rec_write.op = op_idx;
        rec_write.kind = PlannedAccess::kRecordWrite;
        rec_write.word = key;
        rec_write.version = cur.version + 1;
        emit(tb, rec_write);

        tb.logical[k] = CommitWord{cur.version + 1, replica, true}.encode();
        tb.pending[k] = 1;
        tb.pending_slots.push_back(slot);
        if (scfg.group_commit_window == 0) {
          flush_window(tb, op_idx);  // batch of 1: the op owns its commit write
        } else if (tb.pending_slots.size() >= scfg.group_commit_window) {
          flush_window(tb, kNoOp);
        }
      }
    }
    // Epoch boundary is a durability point: every table's window goes out.
    for (Table& tb : tables) flush_window(tb, kNoOp);

    // Phase 2: replay each controller's queue behind the gang barrier.
    gang.run_epoch(replay);

    // Epoch barrier: fold service times into per-client histograms in
    // global op order. Group flushes (kNoOp) contribute to makespan and
    // the flush columns, not to any single client's latency.
    op_lat.assign(epoch_ops, 0);
    for (const Lane& lane : lanes) {
      for (const PlannedAccess& a : lane.queue) {
        if (a.seq >= stop_seq) break;
        if (a.op == kNoOp) continue;
        op_lat[a.op] += a.service;
      }
    }
    if (mem != nullptr && stop_seq == kNoStop) {
      for (std::uint64_t e = 0; e < epoch_ops; ++e) {
        if (plans[e].shed) continue;
        Client& c = clients[plans[e].client];
        if (plans[e].is_update) {
          c.update_lat.add(op_lat[e]);
          ++c.updates;
        } else {
          c.read_lat.add(op_lat[e]);
          ++c.reads;
        }
      }
    }
    done_ops += epoch_ops;
    // Past the crash boundary nothing further executes; keep scheduling
    // only if durable bookkeeping could still change (it cannot).
    if (stop_seq != kNoStop && next_seq >= stop_seq) break;
  }

  for (const Client& c : clients) {
    res.read_lat.merge(c.read_lat);
    res.update_lat.merge(c.update_lat);
    res.reads += c.reads;
    res.updates += c.updates;
  }
  res.all_lat.merge(res.read_lat);
  res.all_lat.merge(res.update_lat);
  res.batch_sizes = batch_sizes;
  res.ops = res.reads + res.updates;
  // A table's timeline is its busiest controller's.
  const auto table_now = [&](const Table& tb) {
    Cycle now = start;
    for (unsigned c = tb.first; c < tb.first + tb.ways; ++c) now = std::max(now, lanes[c].now);
    return now;
  };
  for (Table& tb : tables) {
    res.shed_ops += tb.stats.shed;
    if (tb.stats.degraded) ++res.degraded_shards;
    res.commit_writes += tb.stats.commit_writes;
    tb.stats.busy = table_now(tb) - start;
    res.makespan = std::max(res.makespan, tb.stats.busy);
    tb.stats.mean_batch =
        tb.stats.commit_flushes
            ? static_cast<double>(tb.batched) / static_cast<double>(tb.stats.commit_flushes)
            : 0.0;
  }
  for (Table& tb : tables) {
    tb.stats.occupancy = res.makespan
                             ? static_cast<double>(tb.stats.busy) /
                                   static_cast<double>(res.makespan)
                             : 0.0;
    res.shards.push_back(tb.stats);
  }
  res.seconds = cfg.cycles_to_seconds(res.makespan);
  res.kops_per_sec =
      res.seconds > 0.0 ? static_cast<double>(res.ops) / res.seconds / 1e3 : 0.0;
  if (mem != nullptr) res.nvm_writes = mem->total_nvm_writes();

  // Final durable-image digest: read every commit block and live record
  // back from media, sequentially in table order after the last barrier.
  // Bit-identity across jobs values includes this digest.
  if (mem != nullptr && stop_seq == kNoStop) {
    std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a offset basis
    for (const Table& tb : tables) {
      Cycle now = table_now(tb);
      const auto read = [&](Addr addr, Block* out) {
        const Place p = tb.place(addr);
        now = std::max(now, mem->controller(p.ctrl).read_block(p.addr, now, out));
      };
      for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::size_t first = blk * KvLayout::kWordsPerCommitBlock;
        const std::size_t n =
            std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) any = any || tb.word(tb.media, first + i) != 0;
        if (!any) continue;
        Block b;
        read(layout.commit_block_addr(first), &b);
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t got = word_at(b, i * 8);
          if (got != tb.word(tb.media, first + i)) {
            throw std::logic_error("final image diverged from the schedule shadow");
          }
          fnv_fold(digest, &got, 8);
          const CommitWord word = CommitWord::decode(got);
          if (word.empty() || !word.live) continue;
          Block rec;
          read(layout.record_addr(first + i, word.replica), &rec);
          if (!record_matches(rec, tb.keys[tb.entry[first + i]], word.version,
                              scfg.value_bytes)) {
            throw std::logic_error("final image holds a corrupt or stale record");
          }
          fnv_fold(digest, rec.data(), rec.size());
        }
      }
    }
    res.image_digest = digest;
  }

  EngineRun run;
  run.result = std::move(res);
  run.total_accesses = next_seq;
  run.tables = std::move(tables);
  return run;
}

}  // namespace

ServingResult run_sharded_serving(const SystemConfig& cfg, Scheme scheme,
                                  const ServingConfig& scfg) {
  validate_serving_config(cfg, scfg);
  MultiControllerMemory mem(cfg, scheme, scfg.shards);
  return run_engine(cfg, scfg, kNoStop, &mem).result;
}

std::uint64_t count_serving_accesses(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg) {
  (void)scheme;  // the schedule is scheme-independent
  return run_engine(cfg, scfg, kNoStop, nullptr).total_accesses;
}

ServingCrashReport run_serving_crash(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg,
                                     const ServingCrashOptions& opt) {
  ServingCrashReport rep;
  validate_serving_config(cfg, scfg);
  rep.total_accesses = count_serving_accesses(cfg, scheme, scfg);
  if (opt.crash_at == ServingCrashOptions::kRandomBoundary) {
    Xoshiro256 rng(derive_stream_seed(scfg.seed, 0xC2A54ULL));
    rep.crash_at = rng.below(rep.total_accesses + 1);
  } else {
    rep.crash_at = std::min(opt.crash_at, rep.total_accesses);
  }

  MultiControllerMemory mem(cfg, scheme, scfg.shards);
  EngineRun run = run_engine(cfg, scfg, rep.crash_at, &mem);

  // Fold the requested hardware fault into every controller's crash drain;
  // each DIMM gets its own derived plan so a report reproduces from its
  // fields alone.
  rep.faulted = opt.fault_class != FaultClass::kNone;
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (rep.faulted) {
    for (std::uint32_t s = 0; s < scfg.shards; ++s) {
      injectors.push_back(std::make_unique<FaultInjector>(
          FaultPlan::derive(opt.fault_class, opt.fault_seed + s, rep.crash_at)));
      mem.set_fault_injector(s, injectors.back().get());
    }
  }

  const RecoveryResult r = mem.crash_and_recover_all(scfg.jobs);
  for (std::uint32_t s = 0; s < scfg.shards; ++s) mem.set_fault_injector(s, nullptr);
  if (classify_recovery(r, &rep)) return rep;

  // Diff the recovered image against the durable commit state: every
  // durable commit word must read back EXACTLY (a diverging word is a
  // silent rollback or an uncommitted update made visible) and every
  // durable live record must decode to its committed version/value, or
  // fail with a typed unavailable error (degraded service, not silence).
  KvLayout layout;
  layout.base = scfg.base;
  layout.slots = scfg.slots;
  try {
    for (std::size_t s = 0; s < run.tables.size(); ++s) {
      const Table& tb = run.tables[s];
      Cycle now = 0;
      const auto read = [&](Addr addr, Block* out) {
        const Place p = tb.place(addr);
        now = std::max(now, mem.controller(p.ctrl).read_block(p.addr, now, out));
      };
      const std::size_t nblocks =
          (scfg.slots + KvLayout::kWordsPerCommitBlock - 1) /
          KvLayout::kWordsPerCommitBlock;
      for (std::size_t blk = 0; blk < nblocks; ++blk) {
        const std::size_t first = blk * KvLayout::kWordsPerCommitBlock;
        const std::size_t n =
            std::min(KvLayout::kWordsPerCommitBlock, scfg.slots - first);
        std::uint64_t durable_live = 0;
        bool any = false;
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t durable = tb.word(tb.durable, first + i);
          if (durable == 0) continue;
          any = true;
          if (CommitWord::decode(durable).live) ++durable_live;
        }
        if (!any) continue;
        Block b;
        try {
          read(layout.commit_block_addr(first), &b);
        } catch (const StatusError& e) {
          if (!is_unavailable(e.code())) throw;
          rep.slots_unavailable += durable_live;
          continue;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t slot = first + i;
          const std::uint64_t got = word_at(b, i * 8);
          const std::uint64_t durable = tb.word(tb.durable, slot);
          if (got != durable) {
            rep.detail = "slot " + std::to_string(slot) + " on shard " +
                         std::to_string(s) + " holds commit word " +
                         std::to_string(got) + ", committed " +
                         std::to_string(durable);
            return rep;
          }
          const CommitWord word = CommitWord::decode(got);
          if (word.empty() || !word.live) continue;
          ++rep.committed_slots;
          Block recb;
          try {
            read(layout.record_addr(slot, word.replica), &recb);
          } catch (const StatusError& e) {
            if (!is_unavailable(e.code())) throw;
            ++rep.slots_unavailable;
            continue;
          }
          KvRecord rec;
          ClientValueBuffer want;
          const std::uint64_t key = tb.keys[tb.entry[slot]];
          if (!decode_record(recb, &rec) || rec.key != key ||
              rec.version != word.version ||
              rec.value != client_value(key, word.version, scfg.value_bytes, want)) {
            rep.detail = "committed key " + std::to_string(key) +
                         " has a silently wrong record after recovery";
            return rep;
          }
        }
      }
    }
  } catch (const IntegrityViolation& e) {
    rep.fault_detected = rep.faulted;
    rep.detail = std::string("readback raised: ") + e.what();
    return rep;
  } catch (const StatusError& e) {
    rep.detail = std::string("readback failed untyped: ") + e.what();
    return rep;
  }
  if (rep.slots_unavailable > 0) rep.salvaged = true;
  if (rep.salvaged) {
    rep.degraded_verified = true;
  } else {
    rep.verified = true;
  }
  return rep;
}

}  // namespace steins::kv
