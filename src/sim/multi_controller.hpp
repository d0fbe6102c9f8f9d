// Multi-controller scalability model (paper §IV-F).
//
// "For Intel's Cascade Lake processors, each processor has two MCs, each of
// which supports three Optane DIMMs. When multiple clients access different
// DIMMs, their requests are executed in parallel in different MCs. If they
// initiate requests to the same DIMM, the requests are processed serially."
//
// Each controller instantiates its own Steins (or other scheme) instance
// over its own DIMM; global addresses interleave across controllers at a
// configurable granularity. Per-controller timelines advance independently,
// so disjoint client streams scale while a shared hot DIMM serializes.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "secure/secure_memory.hpp"

namespace steins {

/// Concurrent access contract
/// --------------------------
/// Each controller is a self-contained SecureMemory over its own DIMM with
/// no shared mutable state, so DISTINCT controllers may be driven from
/// distinct threads concurrently — that is the whole point of the model.
/// A SINGLE controller is not thread-safe: all accesses to controller(i)
/// (including note_frontier(i, ...)) must come from one thread at a time,
/// with a happens-before edge (e.g. a ShardGang epoch barrier) between
/// handoffs. The global-address read_block/write_block entry points route
/// by address and may touch any controller, so they must not be mixed with
/// concurrent per-controller serving. Debug builds enforce single ownership
/// via ShardLease; release builds compile the checks out.
class MultiControllerMemory {
 public:
  MultiControllerMemory(const SystemConfig& cfg, Scheme scheme, unsigned controllers,
                        std::size_t interleave_bytes = 4096);

  /// Route a read/write to its controller. `now` is the issuing client's
  /// local time; each controller keeps its own timeline.
  Cycle read_block(Addr addr, Cycle now, Block* out);
  Cycle write_block(Addr addr, const Block& data, Cycle now);

  /// Crash and recover every controller; the slowest DIMM's recovery time
  /// bounds the system (controllers recover in parallel). With `jobs` > 1
  /// the recoveries run on that many host threads; results are merged in
  /// controller order, so the outcome is identical to `jobs` == 1 (the
  /// first failing controller in index order wins).
  RecoveryResult crash_and_recover_all(unsigned jobs = 1);

  /// Arm one controller's next crash with an injector (nullptr disarms);
  /// crash_and_recover_all applies its post-crash faults to that DIMM.
  void set_fault_injector(unsigned controller, FaultInjector* injector);

  unsigned controllers() const { return static_cast<unsigned>(mcs_.size()); }
  SecureMemory& controller(unsigned i) { return *mcs_[i]; }

  /// Aggregate completed work and the busiest controller's frontier —
  /// the makespan of a parallel run.
  Cycle max_frontier() const;
  std::uint64_t total_nvm_writes() const;

  /// Controller a global address routes to. Public so epoch-replay drivers
  /// can pre-partition an access schedule by controller and then execute
  /// each controller's stream on its own worker thread.
  unsigned route(Addr addr) const { return route(addr, interleave_, mcs_.size()); }
  /// Local (per-DIMM) address of a global address.
  Addr local_addr(Addr addr) const { return local_addr(addr, interleave_, mcs_.size()); }
  /// The same mapping for any granularity and controller count, so a
  /// schedule can be partitioned before (or without) building controllers.
  /// One controller maps every address to itself.
  static unsigned route(Addr addr, std::size_t interleave, std::size_t controllers) {
    return static_cast<unsigned>((addr / interleave) % controllers);
  }
  static Addr local_addr(Addr addr, std::size_t interleave, std::size_t controllers) {
    const Addr chunk = addr / interleave;
    return (chunk / controllers) * interleave + (addr % interleave);
  }
  /// Record a controller's completion frontier reached outside read_block/
  /// write_block (epoch-replay drivers call controller(i) directly).
  /// Per-controller slot: safe from the controller's owning thread only.
  void note_frontier(unsigned mc, Cycle t) {
    frontier_[mc] = std::max(frontier_[mc], t);
  }
  /// One controller's completion frontier (per-shard occupancy reporting).
  Cycle frontier(unsigned mc) const { return frontier_[mc]; }

  /// Debug handle for the single-owner contract: constructing a lease marks
  /// the controller owned, destruction releases it, and a second live lease
  /// on the same controller asserts. NDEBUG builds keep the bookkeeping
  /// (cheap relaxed atomics at lease scope boundaries, never per access)
  /// but skip the assert.
  class ShardLease {
   public:
    ShardLease(MultiControllerMemory& mem, unsigned mc)
        : mem_(mem), mc_(mc) {
      const bool was_leased = mem_.leased_[mc_].exchange(true, std::memory_order_acquire);
      assert(!was_leased && "MultiControllerMemory: controller already leased");
      (void)was_leased;
    }
    ~ShardLease() { mem_.leased_[mc_].store(false, std::memory_order_release); }
    ShardLease(const ShardLease&) = delete;
    ShardLease& operator=(const ShardLease&) = delete;

    SecureMemory& mem() { return *mem_.mcs_[mc_]; }
    unsigned mc() const { return mc_; }
    void note_frontier(Cycle t) { mem_.note_frontier(mc_, t); }

   private:
    MultiControllerMemory& mem_;
    unsigned mc_;
  };

 private:
  friend class ShardLease;

  std::size_t interleave_;
  std::vector<std::unique_ptr<SecureMemory>> mcs_;
  std::vector<Cycle> frontier_;  // per-controller completion frontier
  std::vector<FaultInjector*> injectors_;  // per-controller crash faults
  std::unique_ptr<std::atomic<bool>[]> leased_;  // ShardLease ownership marks
};

}  // namespace steins
