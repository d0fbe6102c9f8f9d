#include "sim/system.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "fault/fault.hpp"

namespace steins {

System::System(const SystemConfig& cfg, Scheme scheme)
    : cfg_(cfg), mem_(make_scheme(scheme, cfg)), hierarchy_(cfg) {}

void System::mutate_truth(Addr addr) {
  Block& b = truth_.get_or_create(addr);  // zero-initialized on first touch
  ++store_seq_;
  std::memcpy(b.data(), &store_seq_, 8);
  std::memcpy(b.data() + 8, &addr, 8);
  // Cheap per-store variation across the rest of the block.
  const std::uint64_t mix = store_seq_ * 0x9e3779b97f4a7c15ULL ^ addr;
  std::memcpy(b.data() + 16, &mix, 8);
}

void System::apply_memory_ops(const MemoryOps& ops, bool is_write) {
  // Dirty LLC writebacks reach the controller first (they were evicted to
  // make room for the fill).
  for (const Addr wb : ops.writebacks) {
    const Block* known = truth_.find(wb);
    mem_->write_block(wb, known != nullptr ? *known : zero_block(), cpu_.now());
  }
  if (ops.miss_fill) {
    Block loaded;
    Cycle done;
    try {
      done = mem_->read_block(ops.fill_addr, cpu_.now(), &loaded);
    } catch (const StatusError&) {
      // Typed unavailability (quarantined/uncorrectable line): evict the
      // just-installed cache line so every later access of the address
      // re-surfaces the typed error instead of serving a phantom fill.
      (void)hierarchy_.flush_block(ops.fill_addr);
      throw;
    }
    if (!is_write) {
      // End-to-end check: what a LOAD gets back through decrypt+verify must
      // be what the program last stored (or zero if never stored). Store
      // misses fill for ownership only — truth is already ahead of memory.
      const Block* known = truth_.find(ops.fill_addr);
      const Block& expect = known != nullptr ? *known : zero_block();
      if (loaded != expect) {
        throw std::logic_error("secure memory returned wrong plaintext for block " +
                               std::to_string(ops.fill_addr / kBlockSize));
      }
    }
    if (is_write) {
      // Store miss: the store buffer hides most of the fill latency.
      cpu_.add_latency(cpu_.latencies().store_miss_overlap);
      (void)done;
    } else {
      cpu_.stall_until(done);
    }
  }
}

void System::step(const MemAccess& access) {
  cpu_.advance(access.gap);
  ++accesses_;
  const Addr addr = access.addr & ~static_cast<Addr>(kBlockSize - 1);

  if (access.is_write) mutate_truth(addr);

  const MemoryOps ops = hierarchy_.access(addr, access.is_write);
  switch (ops.hit_level) {
    case 1:
      cpu_.add_latency(access.is_write ? 1 : cpu_.latencies().l1_hit);
      break;
    case 2:
      cpu_.add_latency(access.is_write ? 1 : cpu_.latencies().l2_hit);
      break;
    case 3:
      cpu_.add_latency(access.is_write ? 1 : cpu_.latencies().l3_hit);
      break;
    default:
      break;  // memory; charged in apply_memory_ops
  }
  apply_memory_ops(ops, access.is_write);

  if (access.flush) persist(addr);
}

Block System::load(Addr addr) {
  addr &= ~static_cast<Addr>(kBlockSize - 1);
  MemAccess a{addr, false, false, 0};
  step(a);
  const Block* known = truth_.find(addr);
  return known != nullptr ? *known : zero_block();
}

void System::store(Addr addr, const Block& data) {
  addr &= ~static_cast<Addr>(kBlockSize - 1);
  cpu_.advance(0);
  ++accesses_;
  truth_.get_or_create(addr) = data;
  ++store_seq_;
  const MemoryOps ops = hierarchy_.access(addr, true);
  apply_memory_ops(ops, true);
}

void System::persist(Addr addr) {
  addr &= ~static_cast<Addr>(kBlockSize - 1);
  for (const Addr wb : hierarchy_.flush_block(addr)) {
    const Block* known = truth_.find(wb);
    const Cycle done =
        mem_->write_block(wb, known != nullptr ? *known : zero_block(), cpu_.now());
    cpu_.stall_until(done);  // fence: wait for controller acceptance
  }
}

RunStats System::run(TraceSource& trace, std::uint64_t warmup_accesses) {
  // Pull accesses in batches so generator dispatch is paid once per batch
  // instead of once per access. The per-access stream (and the exact index
  // at which warmup stats reset) is unchanged.
  constexpr std::size_t kBatch = 256;
  // The big per-run tables (truth store, device store, metadata cache) are
  // far larger than the host LLC, so each access's probes stall on host
  // DRAM. The batch gives us lookahead: hint the tables a few accesses
  // early so those loads overlap the current access's work. Hints have no
  // simulated effect — results are bit-identical with or without them.
  constexpr std::size_t kPrefetchAhead = 8;
  MemAccess buf[kBatch];
  std::uint64_t count = 0;
  for (;;) {
    const std::size_t n = trace.next_batch(buf, kBatch);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        const Addr ahead = buf[i + kPrefetchAhead].addr;
        truth_.prefetch(ahead & ~static_cast<Addr>(kBlockSize - 1));
        hierarchy_.prefetch(ahead);
        mem_->prefetch_hint(ahead);
      }
      step(buf[i]);
      ++count;
      if (warmup_accesses != 0 && count == warmup_accesses) reset_stats();
    }
  }
  return collect_stats();
}

void System::set_fault_injector(FaultInjector* injector) {
  fault_injector_ = injector;
  mem_->set_fault_injector(injector);
}

RecoveryResult System::crash_and_recover() {
  return crash_and_recover({});
}

RecoveryResult System::crash_and_recover(
    const std::function<void(SecureMemory&)>& pre_recovery) {
  hierarchy_.clear();
  mem_->crash();
  if (fault_injector_ != nullptr) fault_injector_->apply_post_crash(*mem_);
  if (pre_recovery) pre_recovery(*mem_);
  return recover_with_retry(*mem_, fault_injector_, recovery_policy_);
}

namespace {

struct TruthSlot {
  std::uint64_t block;  // address / kBlockSize
  Block* value;
};

// Orders slots by block index with an LSD radix sort, 11 bits a pass and
// only as many passes as the largest index needs. Block indices are unique,
// so the result is exactly the ascending order a comparison sort gives.
void sort_by_block(std::vector<TruthSlot>& slots, std::uint64_t max_block) {
  constexpr unsigned kBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kBits;
  std::vector<TruthSlot> scratch(slots.size());
  for (unsigned shift = 0; shift < 64 && (max_block >> shift) != 0; shift += kBits) {
    std::size_t start[kBuckets] = {};
    for (const TruthSlot& s : slots) ++start[(s.block >> shift) & (kBuckets - 1)];
    std::size_t sum = 0;
    for (std::size_t& c : start) sum += std::exchange(c, sum);
    for (const TruthSlot& s : slots) scratch[start[(s.block >> shift) & (kBuckets - 1)]++] = s;
    slots.swap(scratch);
  }
}

}  // namespace

void System::resync_truth_after_crash() {
  // Re-read every block the program ever stored straight into its own
  // truth slot, in address order so post-crash read timing is independent
  // of hash-table layout. Nothing is inserted meanwhile, so the slot
  // pointers stay valid.
  std::vector<TruthSlot> slots;
  slots.reserve(truth_.size());
  std::uint64_t max_block = 0;
  truth_.for_each([&](Addr a, Block& value) {
    slots.push_back({a / kBlockSize, &value});
    max_block = std::max(max_block, a / kBlockSize);
  });
  sort_by_block(slots, max_block);

  // The reads walk scattered device and metadata-cache slots: hint them a
  // few blocks ahead, as run() does (no simulated effect).
  constexpr std::size_t kPrefetchAhead = 8;
  const NvmDevice& dev = mem_->device();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (i + kPrefetchAhead < slots.size()) {
      mem_->prefetch_hint(slots[i + kPrefetchAhead].block * kBlockSize);
      __builtin_prefetch(slots[i + kPrefetchAhead].value, 1);
    }
    const Addr a = slots[i].block * kBlockSize;
    Block& value = *slots[i].value;
    if (!dev.contains(a)) {  // never persisted: reads zero
      value = zero_block();
      continue;
    }
    try {
      mem_->read_block(a, cpu_.now(), &value);
    } catch (const StatusError& e) {
      if (!is_unavailable(e.code())) throw;
      // Quarantined after salvage: the block is typed-unavailable, not a
      // value. Its zeroed slot reads as never stored, so later loads
      // surface the typed error from the read path, not plaintext.
      value = zero_block();
    }
  }
}

void System::reset_stats() {
  mem_->stats().reset();
  stats_epoch_cycles_ = cpu_.now();
  stats_epoch_insts_ = cpu_.instructions();
  accesses_ = 0;
}

RunStats System::collect_stats() {
  RunStats s;
  s.cycles = cpu_.now() - stats_epoch_cycles_;
  s.instructions = cpu_.instructions() - stats_epoch_insts_;
  s.accesses = accesses_;
  s.mem = mem_->stats();
  s.energy_nj = s.mem.energy_nj(cfg_);
  s.read_latency_cycles = s.mem.read_latency.mean();
  s.write_latency_cycles = s.mem.write_latency.mean();
  s.read_latency_p50 = s.mem.read_latency.percentile(50.0);
  s.read_latency_p99 = s.mem.read_latency.percentile(99.0);
  s.write_latency_p50 = s.mem.write_latency.percentile(50.0);
  s.write_latency_p99 = s.mem.write_latency.percentile(99.0);
  s.mcache_hit_rate = mem_->metadata_cache_stats().hit_rate();
  return s;
}

}  // namespace steins
