// Shared helpers for the Steins test suite.
#pragma once

#include <cstring>
#include <map>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "secure/secure_memory.hpp"

namespace steins::testutil {

/// A small configuration that keeps tests fast while still exercising
/// evictions: 64 MB NVM, 16 KB metadata cache.
inline SystemConfig small_config(CounterMode mode = CounterMode::kGeneral,
                                 std::size_t mcache_bytes = 16 * 1024) {
  SystemConfig cfg = default_config();
  cfg.nvm.capacity_bytes = 64ULL << 20;
  cfg.secure.metadata_cache.size_bytes = mcache_bytes;
  cfg.counter_mode = mode;
  return cfg;
}

/// Deterministic plaintext block for (address, version).
inline Block pattern_block(Addr addr, std::uint64_t version) {
  Block b{};
  std::memcpy(b.data(), &addr, 8);
  std::memcpy(b.data() + 8, &version, 8);
  const std::uint64_t mix = addr * 0x9e3779b97f4a7c15ULL + version;
  std::memcpy(b.data() + 16, &mix, 8);
  return b;
}

/// Drives a SecureMemory with deterministic writes and tracks ground truth.
class Driver {
 public:
  explicit Driver(SecureMemory& mem, std::uint64_t seed = 1) : mem_(mem), rng_(seed) {}

  /// Write a fresh version of the block at `block_index`.
  void write(std::uint64_t block_index) {
    const Addr addr = block_index * kBlockSize;
    const std::uint64_t version = ++versions_[addr];
    now_ = mem_.write_block(addr, pattern_block(addr, version), now_);
  }

  /// Write `count` blocks uniformly below `footprint_blocks`.
  void write_random(std::uint64_t count, std::uint64_t footprint_blocks) {
    for (std::uint64_t i = 0; i < count; ++i) write(rng_.below(footprint_blocks));
  }

  /// Read and check one block against ground truth. Returns false on a
  /// plaintext mismatch (integrity violations throw from the scheme).
  bool read_check(std::uint64_t block_index) {
    const Addr addr = block_index * kBlockSize;
    Block out;
    now_ = mem_.read_block(addr, now_, &out);
    const auto it = versions_.find(addr);
    const Block expect =
        (it != versions_.end()) ? pattern_block(addr, it->second) : zero_block();
    return out == expect;
  }

  /// Verify every block ever written reads back correctly.
  bool check_all() {
    for (const auto& [addr, version] : versions_) {
      (void)version;
      if (!read_check(addr / kBlockSize)) return false;
    }
    return true;
  }

  const std::map<Addr, std::uint64_t>& versions() const { return versions_; }
  Cycle now() const { return now_; }
  Xoshiro256& rng() { return rng_; }

 private:
  SecureMemory& mem_;
  Xoshiro256 rng_;
  std::map<Addr, std::uint64_t> versions_;
  Cycle now_ = 0;
};

/// Snapshot of every dirty node in the metadata cache (id -> node state).
inline std::map<std::uint64_t, SitNode> dirty_snapshot(SecureMemoryBase& mem) {
  std::map<std::uint64_t, SitNode> snap;
  mem.metadata_cache().for_each([&](const MetadataLine& line) {
    if (line.dirty) {
      snap.emplace(mem.geometry().offset_of(line.payload.id), line.payload);
    }
  });
  return snap;
}

}  // namespace steins::testutil
