// NvmChannel: banked-device timing model with a read-priority write queue.
//
// Discipline (standard memory-controller policy, matching the paper's
// 64-entry write queue): writes are posted into a FIFO and drain to their
// banks once the queue exceeds a watermark; an arriving read waits only for
// its own bank (no mid-write preemption). A posted write stalls the
// producer only when the queue is full. A write->read turnaround (tWTR)
// penalty is charged when a read follows a write on the same bank.
//
// The queue is a fixed ring of write_queue_entries slots, allocated once.
// A 256-bucket count of queued block numbers lets a read, queued() and
// peek_queued_tag() skip the store-forwarding scan when no queued write can
// match (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "nvm/nvm_device.hpp"

namespace steins {

class FaultInjector;

struct ChannelStats {
  LatencyAccumulator read_latency;    // arrival -> data returned (device only)
  LatencyAccumulator write_latency;   // enqueue -> NVM write completed
  std::uint64_t write_queue_stalls = 0;
  void reset() {
    read_latency.reset();
    write_latency.reset();
    write_queue_stalls = 0;
  }
  /// Fold another channel's stats in (per-controller workers accumulate
  /// locally and merge at the epoch barrier).
  void merge(const ChannelStats& other) {
    read_latency.merge(other.read_latency);
    write_latency.merge(other.write_latency);
    write_queue_stalls += other.write_queue_stalls;
  }
};

class NvmChannel {
 public:
  NvmChannel(const SystemConfig& cfg, NvmDevice& dev);

  /// Blocking read arriving at `now`. Returns the cycle when the 64 B block
  /// is available (and fills `*out` if non-null).
  Cycle read(Addr addr, Cycle now, Block* out);

  /// Post a write at `now`. Returns the cycle when the producer may
  /// continue (== now unless the queue was full and it had to stall).
  /// If `acc` is given, (completion - birth) is accumulated into it when
  /// the write drains (per-class latency attribution); `birth` defaults to
  /// `now`. If `tag` is given, the ECC-colocated tag travels with the
  /// queued line and reaches the device in the same transaction as the
  /// block — a torn or dropped line write tears or drops its tag too.
  Cycle write(Addr addr, const Block& data, Cycle now, LatencyAccumulator* acc = nullptr,
              Cycle birth = 0, const std::uint64_t* tag = nullptr);

  /// True if a write to `addr` is still queued (store-forwarding window).
  bool queued(Addr addr) const;

  /// Tag of the newest queued write to `addr` that carries one (the
  /// store-forwarding companion for tag reads). Returns false if no queued
  /// write to `addr` carries a tag.
  bool peek_queued_tag(Addr addr, std::uint64_t* tag) const;

  /// Drain queued writes that the device can start strictly before `t`.
  /// Writes are held back until the queue exceeds the drain watermark
  /// (standard controller policy): reads then rarely collide with the
  /// write stream, and store-forwarding covers the queued window.
  void drain_until(Cycle t);

  /// Queue depth above which the device starts draining writes.
  static constexpr std::size_t kDrainWatermark = 0;

  /// Banks per DIMM. The paper's single-DIMM results are reproduced best
  /// with a serialized device (1); raise for bank-parallel studies.
  static constexpr std::size_t kBanks = 1;

  /// Synchronously drain everything (crash persist / ADR flush); returns
  /// the cycle at which the last write completes.
  Cycle drain_all(Cycle now);

  /// Drain at power loss. Without a fault hook this is drain_all; with one
  /// installed, the injector decides each queued write's fate (commit /
  /// tear / drop / reorder) and commits the survivors itself. Only the
  /// crash path uses this — orderly flushes (flush_all_metadata) always
  /// drain intact.
  Cycle crash_drain_all(Cycle now);

  /// Install (or clear, with nullptr) the crash-drain fault hook.
  void set_crash_fault_hook(FaultInjector* injector) { crash_hook_ = injector; }

  std::size_t queue_depth() const { return size_; }
  Cycle device_free_at() const {
    Cycle m = 0;
    for (const Cycle f : free_at_) m = std::max(m, f);
    return m;
  }
  const ChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Latency of a read served by write-queue store-forwarding.
  static constexpr Cycle kForwardCycles = 4;

 private:
  struct Pending {
    Addr addr;
    Block data;
    Cycle enqueued;
    Cycle birth;
    LatencyAccumulator* acc;
    bool has_tag = false;
    std::uint64_t tag = 0;
  };

  /// Buckets of the queued-address filter, keyed on the block number.
  static constexpr std::size_t kFilterBuckets = 256;
  /// A bucket holds at most every queued entry, so the configured entry
  /// count's type bounds it.
  using BucketCount = std::uint32_t;
  static_assert(std::numeric_limits<decltype(NvmConfig::write_queue_entries)>::max() <=
                    std::numeric_limits<BucketCount>::max(),
                "a filter bucket must count a full write queue");

  static std::size_t bucket_of(Addr addr) {
    return static_cast<std::size_t>(addr / kBlockSize) % kFilterBuckets;
  }

  /// Ring slot of the i-th oldest queued entry.
  std::size_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s >= ring_.size() ? s - ring_.size() : s;
  }
  Pending& front() { return ring_[head_]; }

  void push_back(const Pending& w);
  void pop_front();
  void clear();

  /// Newest queued entry for `addr` (that carries a tag, if `need_tag`),
  /// or nullptr.
  const Pending* newest(Addr addr, bool need_tag) const;

  /// Issue the front queued write with earliest start time `start`.
  void issue_front(Cycle start);

  std::size_t bank_of(Addr addr) const {
    return static_cast<std::size_t>((addr / kBlockSize) % kBanks);
  }

  NvmDevice& dev_;
  // Device timing constants, converted from ns once at construction: the
  // float->cycle conversion is too slow to repeat on every transaction.
  Cycle read_cycles_;
  Cycle write_cycles_;
  Cycle wtr_cycles_;
  FaultInjector* crash_hook_ = nullptr;
  std::vector<Pending> ring_;  // capacity: write_queue_entries (at least 1)
  std::size_t head_ = 0;       // oldest entry
  std::size_t size_ = 0;
  std::array<BucketCount, kFilterBuckets> bucket_count_{};
  std::array<Cycle, kBanks> free_at_{};
  std::array<bool, kBanks> last_was_write_{};
  ChannelStats stats_;
};

}  // namespace steins
