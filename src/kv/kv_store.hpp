// Crash-consistent key-value store laid out in secure NVM blocks.
//
// Every access goes through the secure path (System::load/store/persist),
// so each KV operation pays — and regression-tests — the full
// encrypt/verify/counter-update machinery of the scheme under test.
//
// Layout (KvLayout): an open-addressed hash table of `slots` entries.
// Each slot owns two 64 B record replicas (A/B) plus one 64-bit commit
// word; commit words are packed eight to a block after the record region:
//
//   base ── slot 0 replica A ─ slot 0 replica B ─ slot 1 replica A ─ ...
//        ── commit block 0 (words for slots 0..7) ─ commit block 1 ─ ...
//
// Ordered persist protocol (DESIGN.md §KV): an update writes the new
// record into the *inactive* replica and persists it (clwb+fence), then
// flips the commit word — version, live replica, tombstone bit — and
// persists that. A crash between the two persists leaves the commit word
// pointing at the old replica, so the previously committed value is intact
// and the in-flight update is invisible: recovery is a pure scan, nothing
// to undo or redo. The commit-word persist is the linearization point.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/system.hpp"

namespace steins::kv {

/// Block-level geometry of the store's NVM region. Shared by KvStore
/// (System-based) and the serving engine (MultiControllerMemory-based) so
/// both issue identical access shapes.
struct KvLayout {
  Addr base = Addr{1} << 20;
  std::size_t slots = std::size_t{1} << 12;  // power of two

  static constexpr std::size_t kWordsPerCommitBlock = kBlockSize / 8;

  Addr record_addr(std::size_t slot, int replica) const {
    return base + (2 * slot + static_cast<std::size_t>(replica)) * kBlockSize;
  }
  Addr commit_block_addr(std::size_t slot) const {
    return base + 2 * slots * kBlockSize + (slot / kWordsPerCommitBlock) * kBlockSize;
  }
  std::size_t commit_word_offset(std::size_t slot) const {
    return (slot % kWordsPerCommitBlock) * 8;
  }
  std::uint64_t region_bytes() const {
    return (2 * slots + (slots + kWordsPerCommitBlock - 1) / kWordsPerCommitBlock) *
           kBlockSize;
  }
  std::size_t home_slot(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 17) & (slots - 1);
  }
};

/// On-media record image: one 64 B block.
/// [0,8) key | [8,16) version | [16,24) checksum | [24,32) value length |
/// [32,64) value bytes.
struct KvRecord {
  std::uint64_t key = 0;
  std::uint64_t version = 0;
  std::string value;
};

inline constexpr std::size_t kMaxValueBytes = kBlockSize - 32;

Block encode_record(const KvRecord& rec);
/// In-place encoder: writes the image of {key, version, value} into *out,
/// byte-equal to encode_record(KvRecord{key, version, value}) but without
/// a KvRecord string.
void encode_record(std::uint64_t key, std::uint64_t version, std::string_view value,
                   Block* out);
/// False if the block is not a well-formed record (bad checksum/length).
bool decode_record(const Block& b, KvRecord* out);
/// True if `b` is a well-formed record of exactly (key, version) whose
/// value is value_bytes long. Checks without building the value string.
bool record_matches(const Block& b, std::uint64_t key, std::uint64_t version,
                    std::size_t value_bytes);

/// Commit word: bit 0 = live replica, bit 1 = live (1) vs tombstone (0),
/// bits [2,64) = slot version. Zero means the slot was never used.
struct CommitWord {
  std::uint64_t version = 0;
  int replica = 0;
  bool live = false;

  std::uint64_t encode() const {
    return (version << 2) | (std::uint64_t{live} << 1) |
           static_cast<std::uint64_t>(replica & 1);
  }
  static CommitWord decode(std::uint64_t w) {
    return CommitWord{w >> 2, static_cast<int>(w & 1), (w & 2) != 0};
  }
  bool empty() const { return version == 0; }
};

/// Thrown when the persisted image violates the commit protocol's
/// invariants (live commit word whose record does not match) — possible
/// only when metadata recovery was skipped or failed.
class KvCorruption : public std::runtime_error {
 public:
  explicit KvCorruption(const std::string& what) : std::runtime_error(what) {}
};

class KvStore {
 public:
  /// The store is stateless over NVM: constructing one over a region that
  /// already holds a (recovered) image simply resumes serving it.
  KvStore(System& sys, const KvLayout& layout);

  /// Insert or update. Throws std::invalid_argument if the value exceeds
  /// kMaxValueBytes and std::runtime_error if the table is full.
  void put(std::uint64_t key, const std::string& value);

  /// Read a committed value; nullopt if absent.
  std::optional<std::string> get(std::uint64_t key);

  /// Delete; returns false if the key was absent.
  bool erase(std::uint64_t key);

  /// Enumerate every committed pair (a full region scan — recovery
  /// validation and tests use this to diff against a model).
  std::map<std::uint64_t, std::string> dump();

  // Degraded-mode API. After a salvage recovery some lines under the store
  // are quarantined: the secure path fails reads of them with a *typed*
  // StatusError instead of plaintext. The try_ variants convert those into
  // Status values so a service can keep running; the throwing API above is
  // unchanged (a typed error simply propagates).

  /// Adopt the outcome of System::crash_and_recover(). A detected attack or
  /// an internal recovery failure means the tree was never re-armed: the
  /// store freezes into read-only mode, still serving whatever verifies.
  /// A clean-but-degraded salvage stays writable — quarantined slots just
  /// answer with typed errors until their lines are remapped and rewritten.
  void apply_recovery_report(const RecoveryReport& report);

  /// True once the store froze: after a detected attack / failed recovery
  /// (apply_recovery_report), or once a mutation hit a quarantined line
  /// with the device's remap spare pool exhausted — the slot can never be
  /// repaired, so mutations stop with typed kReadOnly while reads keep
  /// serving whatever verifies.
  bool read_only() const { return read_only_; }
  void set_read_only(bool ro) { read_only_ = ro; }
  /// True when the last applied recovery report salvaged (lost) anything.
  bool degraded() const { return degraded_; }

  /// get() that returns the unavailability instead of throwing. The outer
  /// layer distinguishes "absent" (ok + nullopt) from "unreadable" (error).
  Expected<std::optional<std::string>> try_get(std::uint64_t key);

  /// put() guarded by read-only mode; unavailable lines yield their Status.
  Status try_put(std::uint64_t key, const std::string& value);

  /// erase() with the same contract; value is "was present".
  Expected<bool> try_erase(std::uint64_t key);

  /// dump() that skips unreadable slots instead of throwing on them.
  struct DegradedDump {
    std::map<std::uint64_t, std::string> live;
    std::uint64_t slots_unavailable = 0;  // commit word or record unreadable
  };
  DegradedDump dump_degraded();

  /// Number of persist (clwb+fence) barriers issued so far.
  std::uint64_t persists() const { return persists_; }

  /// Called immediately BEFORE each persist barrier with a stage label
  /// ("record" or "commit") and the barrier's index. Crash-injection tests
  /// throw from here: everything persisted earlier is durable, the store
  /// state in the caches is not.
  using PersistHook = std::function<void(const char* stage, std::uint64_t index)>;
  void set_persist_hook(PersistHook hook) { hook_ = std::move(hook); }

  const KvLayout& layout() const { return layout_; }

 private:
  struct Probe {
    bool found = false;           // key present (live)
    std::size_t slot = 0;         // slot of the key if found
    CommitWord word;              // its commit word if found
    bool has_free = false;        // first reusable slot seen on the way
    std::size_t free_slot = 0;
  };
  Probe probe(std::uint64_t key);

  CommitWord read_commit(std::size_t slot);
  void write_commit(std::size_t slot, const CommitWord& word);
  void persist_barrier(Addr addr, const char* stage);
  /// Freeze read-only when a failed mutation can never be repaired
  /// (quarantined line, spare pool dry).
  void maybe_freeze(const StatusError& e);

  System& sys_;
  KvLayout layout_;
  PersistHook hook_;
  std::uint64_t persists_ = 0;
  bool read_only_ = false;
  bool degraded_ = false;
};

}  // namespace steins::kv
