// YCSB-style workload driver for the LSM engine over a single System.
//
// Unlike the slot-store serving engine (kv/serving.hpp, multi-controller
// saturation), this one measures the *engine*: a single client issues the
// A/B/C/F mixes against an LsmStore, so per-op latencies include WAL
// appends, memtable flushes, and compactions exactly where the op stream
// triggers them. Latency is measured in simulated CPU cycles around each
// operation; write amplification is reported two ways:
//
//   write_amp          — scheme-level: every NVM block write the secure
//                        path issued (data + counters + tree + shadow)
//                        per user byte put
//   logical_write_amp  — engine-level: WAL + run bytes the engine itself
//                        persisted per user byte put
//
// The gap between the two is the security tax on a log-structured write
// path, which is the point of the experiment.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "kv/lsm/lsm_store.hpp"
#include "kv/serving.hpp"
#include "secure/secure_memory.hpp"

namespace steins::lsm {

struct LsmYcsbConfig {
  kv::Mix mix = kv::Mix::kA;
  std::uint64_t ops = 20'000;    // measured operations
  std::uint64_t keys = 2'048;    // preloaded key universe
  std::size_t value_bytes = 24;
  double zipf_s = 0.99;
  std::uint64_t seed = 1;
  LsmLayout layout;
  LsmConfig engine;
  bool verify = false;  // final dump() against the shadow model
};

struct LsmYcsbResult {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t updates = 0;       // updates + the write half of RMWs
  LatencyHistogram read_lat;       // cycles per operation
  LatencyHistogram update_lat;
  LatencyHistogram all_lat;
  double seconds = 0.0;            // simulated time of the measured window
  double kops_per_sec = 0.0;
  std::uint64_t nvm_writes = 0;    // scheme-level block writes (measured window)
  std::uint64_t bytes_put = 0;     // user value bytes in the measured window
  double write_amp = 0.0;          // nvm_writes * 64 / bytes_put (0 for read-only)
  double logical_write_amp = 0.0;  // engine bytes persisted / bytes_put
  LsmStats engine_stats;           // deltas over the measured window
  bool verified = true;
};

/// Run one (scheme, mix) cell. Throws std::invalid_argument on nonsense
/// configurations (zero ops/keys, region overflowing the NVM capacity).
LsmYcsbResult run_lsm_ycsb(const SystemConfig& cfg, Scheme scheme,
                           const LsmYcsbConfig& ycfg);

}  // namespace steins::lsm
