// The KV serving engine over MultiControllerMemory (paper §IV-F): N
// logical clients issue YCSB operations against a slot store whose tables
// live on one or more memory controllers. One engine, three routings:
//
//   kHash        one table (shard) per controller; keys scatter by
//                multiplicative hash.
//   kLoadAware   one table per controller; keys go to the least-loaded
//                shard by expected Zipf weight (descending popularity,
//                capacity-guarded), which evens out per-shard occupancy
//                when the hot set would otherwise pile onto one DIMM.
//   kInterleave  ONE table spread over every controller by
//                MultiControllerMemory::route/local_addr at the 4096 B
//                interleave, so a single op's accesses may land on
//                different DIMMs. ycsb_preset() is the classic multi-client
//                YCSB setup: this routing, no group commit.
//
// Every access is mapped to its (controller, local address) when it is
// planned, so each controller gets its own queue whatever the routing.
// The run proceeds in epochs, each in two phases (DESIGN.md §18):
//
//  1. Schedule resolution (sequential): per-client RNG streams draw keys
//     (Zipf, scattered so the hot set spans controllers) and op types; the
//     router maps each key to its table; per-table bounded admission
//     queues shed overload into typed degraded verdicts; and group commit
//     coalesces commit-word persists into per-window commit-block writes.
//     Every planned access carries a global sequence number in emission
//     order and the value its read must observe (from a scheduler-side
//     shadow of the committed store), or what it writes: a record write
//     its (key, version), encoded into a block image at replay; a commit
//     write the block image snapshotted when its window flushed.
//  2. Replay (parallel): every controller replays its queue back-to-back
//     on its own timeline behind a ShardGang epoch barrier (a
//     work-conserving FIFO server: clients keep each DIMM saturated).
//     Same-address accesses share a queue and keep global order, so every
//     read is validated exactly against the schedule. Queues are disjoint
//     and controllers share no mutable state, so jobs = 1 and jobs = N are
//     bit-identical to the last bit; per-client latency histograms (an
//     op's latency is the sum of its accesses' service times, queueing
//     included) and the group-commit batch-size distribution merge at the
//     barrier in global op order. The makespan is the busiest
//     controller's frontier.
//
// Group commit (paper §IV-B spirit — SecPM-style write coalescing applied
// at the serving layer): within a window, an update writes its record
// replica immediately but only BUFFERS its commit word; the table flushes
// one commit-block write per dirty block at the window boundary. Reads of
// a buffered slot are served from the commit buffer (no media commit
// read). A second update to a slot whose commit word is still buffered
// forces the window out first — otherwise its record write would land in
// the replica the durable commit word still points at, breaking the
// two-replica crash invariant.
//
// Crash validation (run_serving_crash): the global access sequence makes
// "crash at access boundary K" jobs-independent — each controller executes
// exactly its queue prefix below K, ADR drains every issued write, and
// recovery is diffed against the durable commit state derived from commit
// writes below K. Zero silent corruption is the acceptance bar for every
// scheme (write-back passes by being detected as unrecoverable).
//
// Mixes follow the YCSB core workloads:
//   A 50% read / 50% update      B 95% read / 5% update
//   C 100% read                  F 50% read / 50% read-modify-write
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "fault/fault.hpp"
#include "fault/verdict.hpp"
#include "kv/kv_store.hpp"
#include "secure/secure_memory.hpp"

namespace steins::kv {

enum class Mix { kA, kB, kC, kF };

const char* mix_name(Mix m);
std::optional<Mix> parse_mix(const std::string& name);

enum class Routing { kHash, kLoadAware, kInterleave };

const char* routing_name(Routing r);
std::optional<Routing> parse_routing(const std::string& name);

struct ServingConfig {
  Mix mix = Mix::kA;
  unsigned clients = 4;
  unsigned shards = 2;            // controllers: one table each, or one shared (kInterleave)
  std::uint64_t ops = 100'000;    // offered operations across all clients
  std::uint64_t keys = 10'000;    // preloaded key universe (global)
  std::size_t slots = std::size_t{1} << 14;  // slots PER TABLE (power of two)
  std::size_t value_bytes = 24;   // <= kMaxValueBytes
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  Addr base = Addr{1} << 20;      // table region base
  /// Worker threads (capped at shards). Any value is bit-identical; 1
  /// replays every controller inline on the calling thread.
  unsigned jobs = 1;
  std::uint64_t epoch_ops = 8192;
  Routing routing = Routing::kLoadAware;
  /// Ops a table admits per epoch before shedding into degraded verdicts
  /// (0 = unbounded). Shed ops consume client RNG identically, so runs
  /// with different depths stay schedule-comparable.
  std::uint64_t queue_depth = 0;
  /// Commit-word updates a table buffers before flushing the window
  /// (0 = group commit off: every update writes its commit block at once).
  std::uint64_t group_commit_window = 64;
};

/// The multi-client YCSB preset: one table interleaved over 2 controllers,
/// 1 << 15 slots, every update persisting its own commit block.
inline ServingConfig ycsb_preset() {
  ServingConfig c;
  c.shards = 2;
  c.slots = std::size_t{1} << 15;
  c.routing = Routing::kInterleave;
  c.group_commit_window = 0;
  return c;
}

/// Per-table (shard) statistics; kInterleave reports its one table.
struct ShardServingStats {
  std::uint64_t keys = 0;          // keys routed to this table
  std::uint64_t ops = 0;           // admitted (executed) ops
  std::uint64_t shed = 0;          // admission-queue overflow verdicts
  bool degraded = false;           // shed anything => degraded service
  Cycle busy = 0;                  // measured span on this table's controllers
  double occupancy = 0.0;          // busy / makespan (1.0 = the critical shard)
  std::uint64_t commit_flushes = 0;   // group-commit windows flushed
  std::uint64_t commit_writes = 0;    // commit-block writes issued
  double mean_batch = 0.0;            // coalesced commit words per flush
};

struct ServingResult {
  std::uint64_t offered_ops = 0;
  std::uint64_t ops = 0;           // executed (admitted) ops
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;
  std::uint64_t shed_ops = 0;      // typed overload verdicts, never executed
  std::uint64_t degraded_shards = 0;
  LatencyHistogram read_lat;       // cycles, merged across clients
  LatencyHistogram update_lat;
  LatencyHistogram all_lat;
  /// Group-commit batch sizes: one sample per flushed window (number of
  /// commit-word updates it coalesced).
  LatencyHistogram batch_sizes;
  Cycle makespan = 0;              // busiest controller's measured span
  double seconds = 0.0;
  double kops_per_sec = 0.0;       // executed ops over the makespan
  std::uint64_t nvm_writes = 0;    // across all controllers, measured phase
  std::uint64_t commit_writes = 0; // commit-block writes (coalescing visible)
  /// FNV-1a digest of the final durable KV image (every commit word +
  /// every live record), read back after the last barrier. Bit-identity
  /// checks compare this across jobs values.
  std::uint64_t image_digest = 0;
  std::vector<ShardServingStats> shards;
};

/// Scratch space for one client value.
using ClientValueBuffer = std::array<char, kMaxValueBytes>;

/// The value a serving client stores as version `version` of `key`:
/// "c<key>.<version>" padded with '~' (or cut) to value_bytes, at most
/// kMaxValueBytes. Formatted into `buf`; the returned view points there.
std::string_view client_value(std::uint64_t key, std::uint64_t version,
                              std::size_t value_bytes, ClientValueBuffer& buf);

/// Throws std::invalid_argument on nonsense configurations: zero
/// clients/shards/keys/epoch_ops, slots not a power of two, values over
/// kMaxValueBytes, or a table region exceeding its controllers' capacity.
/// Every entry point below calls it first; front ends call it to reject
/// bad input before running anything.
void validate_serving_config(const SystemConfig& cfg, const ServingConfig& scfg);

/// Run one (scheme, mix) serving cell to completion. Throws
/// std::invalid_argument on nonsense configurations (see above, plus keys
/// overflowing the half-full guard of the tables they route to).
ServingResult run_sharded_serving(const SystemConfig& cfg, Scheme scheme,
                                  const ServingConfig& scfg);

struct ServingCrashOptions {
  static constexpr std::uint64_t kRandomBoundary = ~std::uint64_t{0};
  /// Global access sequence number to crash at: every access with seq < K
  /// is issued (and ADR-durable), nothing at or after K is. kRandomBoundary
  /// draws uniformly over [0, total_accesses].
  std::uint64_t crash_at = kRandomBoundary;
  /// Optional hardware fault folded into every controller's crash drain
  /// (per-controller plans derive from (fault_seed, crash_at, shard)).
  FaultClass fault_class = FaultClass::kNone;
  std::uint64_t fault_seed = 0;
};

/// Scored with the shared CrashVerdict (fault/verdict.hpp), exactly as
/// KvCrashReport: `verified` is an exact durable diff with no salvage.
struct ServingCrashReport : CrashVerdict {
  std::uint64_t total_accesses = 0;
  std::uint64_t crash_at = 0;
  std::uint64_t committed_slots = 0;   // durable live slots at the crash
  std::uint64_t slots_unavailable = 0; // durable slots behind typed errors
};

/// Plan the full run once to learn the access count, then re-run it with
/// the crash injected at the chosen boundary, recover every controller
/// (in parallel when scfg.jobs > 1 — bit-identical), and diff the
/// recovered image against the durable commit state.
ServingCrashReport run_serving_crash(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg,
                                     const ServingCrashOptions& opt);

/// Total planned accesses for a serving configuration (schedule resolution
/// only, no memory execution) — lets sweeps choose crash strides cheaply.
std::uint64_t count_serving_accesses(const SystemConfig& cfg, Scheme scheme,
                                     const ServingConfig& scfg);

}  // namespace steins::kv
