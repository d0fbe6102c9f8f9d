#include "kv/kv_store.hpp"

#include <cstring>
#include <stdexcept>
#include <string_view>

namespace steins::kv {

namespace {

/// FNV-1a over the record fields, finalized splitmix-style. Detects a
/// record image that does not belong to its commit word (protocol bugs,
/// unrecovered metadata) rather than adversarial tampering — the secure
/// path's HMACs own that job.
std::uint64_t record_checksum(std::uint64_t key, std::uint64_t version,
                              std::string_view value) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix_u64 = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  mix_u64(key);
  mix_u64(version);
  mix_u64(value.size());
  for (const char c : value) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return h;
}

struct RecordHeader {
  std::uint64_t key = 0;
  std::uint64_t version = 0;
  std::uint64_t len = 0;
};

/// The header fields and a view of the value bytes; false if the length
/// field overflows the block or the checksum does not match.
bool parse_record(const Block& b, RecordHeader* h, std::string_view* value) {
  std::uint64_t sum = 0;
  std::memcpy(&h->key, b.data(), 8);
  std::memcpy(&h->version, b.data() + 8, 8);
  std::memcpy(&sum, b.data() + 16, 8);
  std::memcpy(&h->len, b.data() + 24, 8);
  if (h->len > kMaxValueBytes) return false;
  *value = std::string_view(reinterpret_cast<const char*>(b.data() + 32), h->len);
  return sum == record_checksum(h->key, h->version, *value);
}

}  // namespace

void encode_record(std::uint64_t key, std::uint64_t version, std::string_view value,
                   Block* out) {
  STEINS_CHECK(value.size() <= kMaxValueBytes, "KV record value overflows its block");
  Block& b = *out;
  const std::uint64_t len = value.size();
  const std::uint64_t sum = record_checksum(key, version, value);
  std::memcpy(b.data(), &key, 8);
  std::memcpy(b.data() + 8, &version, 8);
  std::memcpy(b.data() + 16, &sum, 8);
  std::memcpy(b.data() + 24, &len, 8);
  std::memcpy(b.data() + 32, value.data(), value.size());
  std::memset(b.data() + 32 + value.size(), 0, kMaxValueBytes - value.size());
}

Block encode_record(const KvRecord& rec) {
  Block b{};
  encode_record(rec.key, rec.version, rec.value, &b);
  return b;
}

bool decode_record(const Block& b, KvRecord* out) {
  RecordHeader h;
  std::string_view value;
  if (!parse_record(b, &h, &value)) return false;
  if (out != nullptr) *out = KvRecord{h.key, h.version, std::string(value)};
  return true;
}

bool record_matches(const Block& b, std::uint64_t key, std::uint64_t version,
                    std::size_t value_bytes) {
  RecordHeader h;
  std::string_view value;
  return parse_record(b, &h, &value) && h.key == key && h.version == version &&
         h.len == value_bytes;
}

KvStore::KvStore(System& sys, const KvLayout& layout) : sys_(sys), layout_(layout) {
  if (layout_.slots == 0 || (layout_.slots & (layout_.slots - 1)) != 0) {
    throw std::invalid_argument("KvLayout::slots must be a power of two");
  }
  if (layout_.base + layout_.region_bytes() > sys_.config().nvm.capacity_bytes) {
    throw std::invalid_argument("KV region exceeds NVM capacity");
  }
}

void KvStore::persist_barrier(Addr addr, const char* stage) {
  if (hook_) hook_(stage, persists_);
  sys_.persist(addr);
  ++persists_;
}

CommitWord KvStore::read_commit(std::size_t slot) {
  const Block b = sys_.load(layout_.commit_block_addr(slot));
  std::uint64_t w = 0;
  std::memcpy(&w, b.data() + layout_.commit_word_offset(slot), 8);
  return CommitWord::decode(w);
}

void KvStore::write_commit(std::size_t slot, const CommitWord& word) {
  const Addr addr = layout_.commit_block_addr(slot);
  Block b = sys_.load(addr);
  const std::uint64_t w = word.encode();
  std::memcpy(b.data() + layout_.commit_word_offset(slot), &w, 8);
  sys_.store(addr, b);
}

KvStore::Probe KvStore::probe(std::uint64_t key) {
  Probe p;
  const std::size_t home = layout_.home_slot(key);
  for (std::size_t i = 0; i < layout_.slots; ++i) {
    const std::size_t s = (home + i) & (layout_.slots - 1);
    const CommitWord w = read_commit(s);
    if (w.empty()) {
      // Never-used slot: the key cannot be further down the chain.
      if (!p.has_free) {
        p.has_free = true;
        p.free_slot = s;
      }
      return p;
    }
    if (!w.live) {
      // Tombstone: reusable, but the chain continues past it.
      if (!p.has_free) {
        p.has_free = true;
        p.free_slot = s;
      }
      continue;
    }
    KvRecord rec;
    const Block b = sys_.load(layout_.record_addr(s, w.replica));
    if (!decode_record(b, &rec) || rec.version != w.version) {
      throw KvCorruption("live slot " + std::to_string(s) +
                         " has a record inconsistent with its commit word");
    }
    if (rec.key == key) {
      p.found = true;
      p.slot = s;
      p.word = w;
      return p;
    }
  }
  return p;
}

void KvStore::put(std::uint64_t key, const std::string& value) {
  if (value.size() > kMaxValueBytes) {
    throw std::invalid_argument("KV value exceeds " + std::to_string(kMaxValueBytes) +
                                " bytes");
  }
  const Probe p = probe(key);
  std::size_t slot;
  CommitWord old;
  if (p.found) {
    slot = p.slot;
    old = p.word;
  } else if (p.has_free) {
    slot = p.free_slot;
    old = read_commit(slot);
  } else {
    throw std::runtime_error("KV store full (" + std::to_string(layout_.slots) +
                             " slots)");
  }

  // Step 1: the new record goes to the replica the commit word does NOT
  // reference, and must be durable before the commit word can name it.
  const int replica = old.empty() ? 0 : 1 - old.replica;
  const Addr rec_addr = layout_.record_addr(slot, replica);
  sys_.store(rec_addr, encode_record(KvRecord{key, old.version + 1, value}));
  persist_barrier(rec_addr, "record");

  // Step 2: flip the commit word — the operation's linearization point.
  write_commit(slot, CommitWord{old.version + 1, replica, true});
  persist_barrier(layout_.commit_block_addr(slot), "commit");
}

std::optional<std::string> KvStore::get(std::uint64_t key) {
  const Probe p = probe(key);
  if (!p.found) return std::nullopt;
  KvRecord rec;
  const Block b = sys_.load(layout_.record_addr(p.slot, p.word.replica));
  if (!decode_record(b, &rec) || rec.key != key || rec.version != p.word.version) {
    throw KvCorruption("record for key " + std::to_string(key) +
                       " inconsistent with its commit word");
  }
  return rec.value;
}

bool KvStore::erase(std::uint64_t key) {
  const Probe p = probe(key);
  if (!p.found) return false;
  // A tombstone is a single commit-word flip: nothing to persist first.
  write_commit(p.slot, CommitWord{p.word.version + 1, p.word.replica, false});
  persist_barrier(layout_.commit_block_addr(p.slot), "commit");
  return true;
}

void KvStore::apply_recovery_report(const RecoveryReport& report) {
  degraded_ = report.degraded();
  if (report.attack_detected || !report.status.ok()) read_only_ = true;
}

Expected<std::optional<std::string>> KvStore::try_get(std::uint64_t key) {
  try {
    return get(key);
  } catch (const StatusError& e) {
    return e.status();
  }
}

void KvStore::maybe_freeze(const StatusError& e) {
  if (e.code() != ErrorCode::kQuarantined && e.code() != ErrorCode::kUncorrectable)
    return;
  // A mutation hit a quarantined (or just-retired uncorrectable) line. With
  // spares left the line will be remapped and a fresh write repairs the
  // slot, so the store stays writable. With the pool exhausted it is
  // permanently dead: the
  // ordered-persist protocol can never complete against it, so the store
  // freezes read-only instead of limping into a state where some slots
  // half-accept updates.
  auto* base = dynamic_cast<SecureMemoryBase*>(&sys_.memory());
  if (base == nullptr || base->device().remap_pool_free() == 0) {
    read_only_ = true;
  }
}

Status KvStore::try_put(std::uint64_t key, const std::string& value) {
  if (read_only_) {
    return Status(ErrorCode::kReadOnly, "KV store is read-only");
  }
  try {
    put(key, value);
    return Status::Ok();
  } catch (const StatusError& e) {
    maybe_freeze(e);
    return e.status();
  }
}

Expected<bool> KvStore::try_erase(std::uint64_t key) {
  if (read_only_) {
    return Status(ErrorCode::kReadOnly, "KV store is read-only");
  }
  try {
    return erase(key);
  } catch (const StatusError& e) {
    maybe_freeze(e);
    return e.status();
  }
}

KvStore::DegradedDump KvStore::dump_degraded() {
  DegradedDump out;
  for (std::size_t s = 0; s < layout_.slots; ++s) {
    CommitWord w;
    try {
      w = read_commit(s);
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      ++out.slots_unavailable;
      continue;
    }
    if (w.empty() || !w.live) continue;
    Block b;
    try {
      b = sys_.load(layout_.record_addr(s, w.replica));
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      ++out.slots_unavailable;
      continue;
    }
    KvRecord rec;
    if (!decode_record(b, &rec) || rec.version != w.version) {
      throw KvCorruption("slot " + std::to_string(s) +
                         " holds a committed record that fails validation");
    }
    out.live[rec.key] = rec.value;
  }
  return out;
}

std::map<std::uint64_t, std::string> KvStore::dump() {
  std::map<std::uint64_t, std::string> out;
  for (std::size_t s = 0; s < layout_.slots; ++s) {
    const CommitWord w = read_commit(s);
    if (w.empty() || !w.live) continue;
    KvRecord rec;
    const Block b = sys_.load(layout_.record_addr(s, w.replica));
    if (!decode_record(b, &rec) || rec.version != w.version) {
      throw KvCorruption("slot " + std::to_string(s) +
                         " holds a committed record that fails validation");
    }
    out[rec.key] = rec.value;
  }
  return out;
}

}  // namespace steins::kv
