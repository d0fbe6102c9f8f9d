// Trace workloads: `spec-read` and `persist-crash`.
//
// The untraced pass drives each System through System::run, one timed
// chunk of accesses at a time. The traced pass replays System::step from
// outside through the public layer calls (CacheHierarchy::access,
// SecureMemory::read_block/write_block, CpuModel), timing each; its
// simulated results must equal the untraced pass's exactly.
#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "secure/secure_memory.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace/workloads.hpp"

namespace perfbench {
namespace {

using namespace steins;

struct TraceParams {
  std::vector<std::string> traces;
  std::vector<SchemeSpec> schemes;
  std::uint64_t warmup;          // accesses before statistics reset (set-up)
  std::uint64_t chunk;           // accesses per timed unit
  std::uint64_t chunks;          // measured chunks per cell
  std::uint64_t crash_every;     // chunks between crashes
  bool crash_all_recoverable;    // false: only Steins crashes
};

/// Serves at most `limit` accesses of an underlying trace, so one
/// continuous stream can be run a chunk at a time.
class ChunkSource final : public TraceSource {
 public:
  ChunkSource(TraceSource& src, std::uint64_t limit) : src_(src), left_(limit) {}

  bool next(MemAccess* out) override { return next_batch(out, 1) == 1; }
  std::size_t next_batch(MemAccess* out, std::size_t max) override {
    if (left_ == 0) return 0;
    const std::size_t n = src_.next_batch(out, std::min<std::uint64_t>(max, left_));
    left_ -= n;
    return n;
  }
  void reset() override { throw std::logic_error("ChunkSource cannot rewind"); }

 private:
  TraceSource& src_;
  std::uint64_t left_;
};

/// Layer counts gathered at the traced pass's call boundaries.
struct LayerCounts {
  std::uint64_t accesses = 0;
  std::uint64_t mem_ops = 0;  // fills + writebacks reaching the controller
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t meta_reads_on_read = 0;
  std::uint64_t meta_writes_on_write = 0;
  std::uint64_t aux_writes_on_write = 0;
  LatencyHistogram read_sim, write_sim;  // simulated cycles per call
  std::uint64_t l_hits[3] = {}, l_total[3] = {};
  std::uint64_t mc_hits = 0, mc_total = 0;
  std::uint64_t aes = 0, hash = 0, nvm_reads = 0, nvm_writes = 0, reencryptions = 0;
  std::uint64_t wq_stalls = 0;
  double resident_mb_max = 0.0;
  std::uint64_t recoveries = 0;
  double recover_sim_ms = 0.0, recover_nvm_reads = 0.0, recover_nodes = 0.0;
  std::uint64_t passes = 0;
};

/// Replays System::step, System::persist and resync_truth_after_crash from
/// outside the System through its public layer accessors, keeping its own
/// plaintext ground truth exactly as System does.
class OutsideStepper {
 public:
  OutsideStepper(System& sys, Tracer& tracer)
      : sys_(sys), mem_(sys.memory()), caches_(sys.caches()), cpu_(sys.cpu()), tr_(tracer) {}

  /// Count layer work into `counts` (nullptr while warming up).
  void set_counts(LayerCounts* counts) { counts_ = counts; }

  void run(TraceSource& trace, std::uint64_t n, std::uint64_t& request) {
    MemAccess buf[256];
    while (n > 0) {
      const std::size_t want = std::min<std::uint64_t>(n, 256);
      const std::size_t got = tr_.time(Call::kTraceNext, [&] { return trace.next_batch(buf, want); });
      if (got == 0) throw std::logic_error("trace ended early");
      for (std::size_t i = 0; i < got; ++i) {
        tr_.begin_request(request++);
        step(buf[i]);
        tr_.end_request();
      }
      n -= got;
    }
  }

  RecoveryReport crash() {
    RecoveryReport r = tr_.time(Call::kRecover, [&] { return sys_.crash_and_recover(); });
    if (r.ok()) tr_.time(Call::kResync, [&] { resync(); });
    return r;
  }

 private:
  void mutate_truth(Addr addr) {
    Block& b = truth_.get_or_create(addr);
    ++store_seq_;
    std::memcpy(b.data(), &store_seq_, 8);
    std::memcpy(b.data() + 8, &addr, 8);
    const std::uint64_t mix = store_seq_ * 0x9e3779b97f4a7c15ULL ^ addr;
    std::memcpy(b.data() + 16, &mix, 8);
  }

  const Block& truth_of(Addr addr) {
    static const Block kZero = zero_block();
    const Block* known = truth_.find(addr);
    return known != nullptr ? *known : kZero;
  }

  Cycle write_block(Addr addr) {
    const ExecStats& st = mem_.stats();
    const std::uint64_t meta0 = st.meta_writes;
    const std::uint64_t aux0 = st.aux_writes + st.aux_write_bytes / kBlockSize;
    const Cycle now = cpu_.now();
    const Block& data = truth_of(addr);
    const Cycle done = tr_.time(Call::kSecureWrite, [&] { return mem_.write_block(addr, data, now); });
    if (counts_ != nullptr) {
      ++counts_->writes;
      ++counts_->mem_ops;
      counts_->meta_writes_on_write += st.meta_writes - meta0;
      counts_->aux_writes_on_write += st.aux_writes + st.aux_write_bytes / kBlockSize - aux0;
      counts_->write_sim.add(done - now);
    }
    return done;
  }

  Cycle read_block(Addr addr, Block* out) {
    const std::uint64_t meta0 = mem_.stats().meta_reads;
    const Cycle now = cpu_.now();
    const Cycle done = tr_.time(Call::kSecureRead, [&] { return mem_.read_block(addr, now, out); });
    if (counts_ != nullptr) {
      ++counts_->reads;
      ++counts_->mem_ops;
      counts_->meta_reads_on_read += mem_.stats().meta_reads - meta0;
      counts_->read_sim.add(done - now);
    }
    return done;
  }

  void step(const MemAccess& access) {
    cpu_.advance(access.gap);
    if (counts_ != nullptr) ++counts_->accesses;
    const Addr addr = access.addr & ~static_cast<Addr>(kBlockSize - 1);
    if (access.is_write) mutate_truth(addr);

    const MemoryOps ops =
        tr_.time(Call::kCacheAccess, [&] { return caches_.access(addr, access.is_write); });
    if (ops.hit_level >= 1 && ops.hit_level <= 3) {
      const CpuLatencies& lat = cpu_.latencies();
      const Cycle hit[] = {0, lat.l1_hit, lat.l2_hit, lat.l3_hit};
      cpu_.add_latency(access.is_write ? 1 : hit[ops.hit_level]);
    }
    for (const Addr wb : ops.writebacks) (void)write_block(wb);
    if (ops.miss_fill) {
      Block loaded;
      const Cycle done = read_block(ops.fill_addr, &loaded);
      if (!access.is_write && loaded != truth_of(ops.fill_addr)) {
        throw std::logic_error("outside replay loaded wrong plaintext for block " +
                               std::to_string(ops.fill_addr / kBlockSize));
      }
      if (access.is_write) {
        cpu_.add_latency(cpu_.latencies().store_miss_overlap);
      } else {
        cpu_.stall_until(done);
      }
    }
    if (access.flush) {
      const Writebacks wbs = tr_.time(Call::kCacheFlush, [&] { return caches_.flush_block(addr); });
      for (const Addr wb : wbs) cpu_.stall_until(write_block(wb));
    }
  }

  void resync() {
    std::vector<Addr> addrs;
    addrs.reserve(truth_.size());
    truth_.for_each([&](Addr a, const Block&) { addrs.push_back(a); });
    std::sort(addrs.begin(), addrs.end());
    FlatMap<Block> survivors;
    for (const Addr a : addrs) {
      if (!mem_.device().contains(a)) continue;
      Block actual;
      mem_.read_block(a, cpu_.now(), &actual);
      survivors.get_or_create(a) = actual;
    }
    truth_ = std::move(survivors);
  }

  System& sys_;
  SecureMemory& mem_;
  CacheHierarchy& caches_;
  CpuModel& cpu_;
  Tracer& tr_;
  LayerCounts* counts_ = nullptr;
  FlatMap<Block> truth_;
  std::uint64_t store_seq_ = 0;
};

/// Simulated outcome of one (trace, scheme) cell.
struct CellOut {
  RunStats stats;  // measured phase
  std::uint64_t crashes = 0;
  double recovery_s = 0.0;  // modeled, summed over crashes
  std::uint64_t recovery_reads = 0;
  std::uint64_t recovery_nodes = 0;
};

bool is_steins(const SchemeSpec& s) { return s.scheme == Scheme::kSteins; }

class TraceWorkload final : public Workload {
 public:
  explicit TraceWorkload(TraceParams p) : p_(std::move(p)) {}

  void pass(RunContext& ctx, bool traced) override {
    HostStats& host = ctx.host_for(traced);
    std::vector<CellOut> cells;
    std::vector<double> record;
    std::uint64_t request = 0;
    if (traced) ++counts_.passes;
    for (std::size_t t = 0; t < p_.traces.size(); ++t) {
      for (const SchemeSpec& spec : p_.schemes) {
        const bool crashes =
            spec.scheme != Scheme::kWriteBack && (p_.crash_all_recoverable || is_steins(spec));
        CellOut out = run_cell(ctx, p_.traces[t], spec, derive_stream_seed(ctx.seed, t + 1),
                               crashes, traced, host, request);
        const ExecStats& m = out.stats.mem;
        for (const double v :
             {static_cast<double>(out.stats.cycles), static_cast<double>(m.nvm_reads()),
              static_cast<double>(m.nvm_writes()), static_cast<double>(m.hash_ops),
              static_cast<double>(m.aes_ops), static_cast<double>(m.write_latency.sum),
              static_cast<double>(m.read_latency.sum), out.recovery_s,
              static_cast<double>(out.recovery_reads)}) {
          record.push_back(v);
        }
        cells.push_back(std::move(out));
      }
    }
    check_record(ctx, reference_, std::move(record), traced, "trace cells");
    if (first_.empty()) first_ = std::move(cells);
  }

  void sim_metrics(const RunContext& ctx, Metrics& out) const override {
    // Pair every Steins cell with the write-back cell of the same trace and
    // counter mode.
    std::vector<double> exec, wlat, traffic, p99_ns;
    double rec_s = 0.0, sim_s = 0.0;
    std::uint64_t crashes = 0, accesses = 0;
    const std::size_t ns = p_.schemes.size();
    for (std::size_t t = 0; t < p_.traces.size(); ++t) {
      for (std::size_t s = 0; s < ns; ++s) {
        if (!is_steins(p_.schemes[s])) continue;
        const CellOut& st = first_[t * ns + s];
        const CellOut* wb = nullptr;
        for (std::size_t b = 0; b < ns; ++b) {
          if (p_.schemes[b].scheme == Scheme::kWriteBack &&
              p_.schemes[b].mode == p_.schemes[s].mode) {
            wb = &first_[t * ns + b];
          }
        }
        exec.push_back(static_cast<double>(st.stats.cycles) / static_cast<double>(wb->stats.cycles));
        wlat.push_back(st.stats.write_latency_cycles / wb->stats.write_latency_cycles);
        traffic.push_back(static_cast<double>(st.stats.mem.nvm_writes()) /
                          static_cast<double>(wb->stats.mem.nvm_writes()));
        p99_ns.push_back(st.stats.read_latency_p99 / ctx.cfg.cpu.freq_ghz);
        rec_s += st.recovery_s;
        crashes += st.crashes;
        sim_s += ctx.cfg.cycles_to_seconds(st.stats.cycles);
        accesses += p_.chunk * p_.chunks;
      }
    }
    out.push_back({"sim_exec_norm", geomean(exec), "x"});
    out.push_back({"sim_write_lat_norm", geomean(wlat), "x"});
    out.push_back({"sim_traffic_norm", geomean(traffic), "x"});
    out.push_back({"sim_recovery_ms", crashes ? rec_s * 1e3 / static_cast<double>(crashes) : 0.0, "ms"});
    out.push_back({"sim_kops_s", static_cast<double>(accesses) / sim_s / 1e3, "kops/s"});
    out.push_back({"sim_p99_ns", geomean(p99_ns), "ns"});
  }

  void layer_metrics(const RunContext& ctx, Metrics& out) const override {
    const LayerCounts& c = counts_;
    const Tracer& tr = ctx.tracer;
    const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const double acc = static_cast<double>(c.accesses);
    const double passes = static_cast<double>(c.passes);
    out.push_back({"trace.host_ns_per_access", per(tr.total_ns(Call::kTraceNext), acc), "ns"});
    out.push_back({"cache.host_ns_per_access",
                   per(tr.total_ns(Call::kCacheAccess) + tr.total_ns(Call::kCacheFlush), acc), "ns"});
    out.push_back({"cache.mem_ops_per_access", per(static_cast<double>(c.mem_ops), acc), "count"});
    const char* levels[] = {"cache.l1_hit", "cache.l2_hit", "cache.l3_hit"};
    for (int l = 0; l < 3; ++l) {
      out.push_back({levels[l], per(static_cast<double>(c.l_hits[l]), static_cast<double>(c.l_total[l])),
                     "ratio"});
    }
    const LatencyHistogram& rd = tr.hist(Call::kSecureRead);
    const LatencyHistogram& wr = tr.hist(Call::kSecureWrite);
    out.push_back({"secure.read.calls", per(static_cast<double>(c.reads), passes), "count"});
    out.push_back({"secure.read.host_ns_p50", rd.percentile(50.0), "ns"});
    out.push_back({"secure.read.host_ns_p99", rd.percentile(99.0), "ns"});
    out.push_back({"secure.read.sim_cycles_p50", c.read_sim.percentile(50.0), "cycles"});
    out.push_back({"secure.read.sim_cycles_p99", c.read_sim.percentile(99.0), "cycles"});
    out.push_back({"secure.mcache_hit", per(static_cast<double>(c.mc_hits), static_cast<double>(c.mc_total)),
                   "ratio"});
    out.push_back({"secure.meta_reads_per_read",
                   per(static_cast<double>(c.meta_reads_on_read), static_cast<double>(c.reads)), "count"});
    out.push_back({"secure.write.calls", per(static_cast<double>(c.writes), passes), "count"});
    out.push_back({"secure.write.host_ns_p50", wr.percentile(50.0), "ns"});
    out.push_back({"secure.write.host_ns_p99", wr.percentile(99.0), "ns"});
    out.push_back({"secure.write.sim_cycles_p50", c.write_sim.percentile(50.0), "cycles"});
    out.push_back({"secure.write.sim_cycles_p99", c.write_sim.percentile(99.0), "cycles"});
    out.push_back({"secure.reencryptions", per(static_cast<double>(c.reencryptions), passes), "count"});
    out.push_back({"secure.meta_writes_per_write",
                   per(static_cast<double>(c.meta_writes_on_write), static_cast<double>(c.writes)), "count"});
    out.push_back({"secure.aux_writes_per_write",
                   per(static_cast<double>(c.aux_writes_on_write), static_cast<double>(c.writes)), "count"});
    out.push_back({"crypto.aes_per_access", per(static_cast<double>(c.aes), acc), "count"});
    out.push_back({"crypto.hash_per_access", per(static_cast<double>(c.hash), acc), "count"});
    out.push_back({"nvm.reads_per_access", per(static_cast<double>(c.nvm_reads), acc), "count"});
    out.push_back({"nvm.writes_per_access", per(static_cast<double>(c.nvm_writes), acc), "count"});
    out.push_back({"nvm.wq_stalls", per(static_cast<double>(c.wq_stalls), passes), "count"});
    out.push_back({"nvm.resident_mb", c.resident_mb_max, "MB"});
    const LatencyHistogram& rec = tr.hist(Call::kRecover);
    const double n_rec = static_cast<double>(c.recoveries);
    out.push_back({"schemes.recover.host_ms_p50", rec.percentile(50.0) / 1e6, "ms"});
    out.push_back({"schemes.recover.host_ms_p99", rec.percentile(99.0) / 1e6, "ms"});
    out.push_back({"sim.resync.host_ms", tr.hist(Call::kResync).mean() / 1e6, "ms"});
    out.push_back({"schemes.recover.sim_ms", per(c.recover_sim_ms, n_rec), "ms"});
    out.push_back({"schemes.recover.nvm_reads", per(c.recover_nvm_reads, n_rec), "count"});
    out.push_back({"schemes.recover.nodes", per(c.recover_nodes, n_rec), "count"});
    // Host-time share of crypto: the pad and MAC kernels' per-call cost
    // times their call counts, over the untraced passes' time (trace mode
    // alternates untraced and traced passes, so the two cover equal work).
    const double crypto_ns = static_cast<double>(c.aes) * ctx.pad_ns +
                             static_cast<double>(c.hash) * ctx.mac_ns;
    out.push_back({"crypto.est_share", per(crypto_ns, ctx.host[0].timed_s * 1e9), "ratio"});
  }

 private:
  CellOut run_cell(RunContext& ctx, const std::string& trace_name, const SchemeSpec& spec,
                   std::uint64_t trace_seed, bool crashes, bool traced, HostStats& host,
                   std::uint64_t& request) {
    SystemConfig cfg = ctx.cfg;
    cfg.counter_mode = spec.mode;
    CellOut out;
    const auto note_recovery = [&](const RecoveryReport& r) {
      ++out.crashes;
      out.recovery_s += r.seconds;
      out.recovery_reads += r.nvm_reads;
      out.recovery_nodes += r.nodes_recovered;
      if (!r.ok()) {
        ctx.fail(spec.label + " recovery on " + trace_name + " not ok: " + r.summary());
        throw PassAborted{};
      }
    };

    std::uint64_t t0 = now_ns();
    System sys(cfg, spec.scheme);
    const std::uint64_t measured = p_.chunk * p_.chunks;
    std::unique_ptr<TraceSource> trace = make_workload(trace_name, p_.warmup + measured, trace_seed);
    std::unique_ptr<OutsideStepper> stepper;
    if (traced) {
      stepper = std::make_unique<OutsideStepper>(sys, ctx.tracer);
      ctx.tracer.set_enabled(false);
      stepper->run(*trace, p_.warmup, request);
    } else {
      ChunkSource warm(*trace, p_.warmup);
      sys.run(warm);
    }
    sys.reset_stats();
    host.add_setup(static_cast<double>(now_ns() - t0) * 1e-9);

    auto* base = dynamic_cast<SecureMemoryBase*>(&sys.memory());
    const std::uint64_t stalls0 = base != nullptr ? base->channel().stats().write_queue_stalls : 0;
    if (traced) {
      ctx.tracer.set_enabled(true);
      stepper->set_counts(&counts_);
    }
    for (std::uint64_t c = 1; c <= p_.chunks; ++c) {
      t0 = now_ns();
      if (traced) {
        stepper->run(*trace, p_.chunk, request);
      } else {
        ChunkSource chunk(*trace, p_.chunk);
        sys.run(chunk);
      }
      if (crashes && c % p_.crash_every == 0) {
        if (traced) {
          note_recovery(stepper->crash());
        } else {
          note_recovery(sys.crash_and_recover());
          sys.resync_truth_after_crash();
        }
      }
      host.add_unit(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    ctx.tracer.set_enabled(false);
    host.ops += measured;
    ctx.attempted += measured;
    out.stats = sys.collect_stats();

    if (traced) {
      LayerCounts& c = counts_;
      const CacheStats* levels[] = {&sys.caches().l1_stats(), &sys.caches().l2_stats(),
                                    &sys.caches().l3_stats()};
      for (int l = 0; l < 3; ++l) {
        c.l_hits[l] += levels[l]->hits;
        c.l_total[l] += levels[l]->hits + levels[l]->misses;
      }
      const CacheStats& mc = sys.memory().metadata_cache_stats();
      c.mc_hits += mc.hits;
      c.mc_total += mc.hits + mc.misses;
      const ExecStats& m = out.stats.mem;
      c.aes += m.aes_ops;
      c.hash += m.hash_ops;
      c.nvm_reads += m.nvm_reads();
      c.nvm_writes += m.nvm_writes();
      c.reencryptions += m.reencryptions;
      if (base != nullptr) c.wq_stalls += base->channel().stats().write_queue_stalls - stalls0;
      NvmDevice& dev = sys.memory().device();
      c.resident_mb_max =
          std::max(c.resident_mb_max,
                   static_cast<double>(dev.resident_blocks(0, dev.address_limit()).size()) *
                       kBlockSize / (1024.0 * 1024.0));
      c.recoveries += out.crashes;
      c.recover_sim_ms += out.recovery_s * 1e3;
      c.recover_nvm_reads += static_cast<double>(out.recovery_reads);
      c.recover_nodes += static_cast<double>(out.recovery_nodes);
    }
    return out;
  }

  TraceParams p_;
  std::vector<double> reference_;
  std::vector<CellOut> first_;
  LayerCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_trace_workload(const std::string& name, const RunContext& ctx) {
  if (name == "spec-read") {
    // Read-dominated SPEC-like traces under the Fig. 9/10/11/13 GC set;
    // one crash per Steins cell, after the measured accesses. Chunks of 150
    // keep the p99 unit inside the slow cells' body: with 300, p99 fell on
    // the edge of a few dozen burst chunks and moved 25% between seeds.
    return std::make_unique<TraceWorkload>(TraceParams{spec_workload_names(),
                                                       gc_comparison_schemes(),
                                                       ctx.scaled(20000), ctx.scaled(150), 200,
                                                       200, false});
  }
  if (name == "persist-crash") {
    // clwb+fence on every store; every recoverable System crashes, recovers
    // and resyncs every 25 chunks (12.5k accesses).
    std::vector<SchemeSpec> schemes = {
        {Scheme::kWriteBack, CounterMode::kGeneral, "WB-GC"},
        {Scheme::kWriteBack, CounterMode::kSplit, "WB-SC"},
        {Scheme::kAnubis, CounterMode::kGeneral, "ASIT"},
        {Scheme::kStar, CounterMode::kGeneral, "STAR"},
        {Scheme::kSteins, CounterMode::kGeneral, "Steins-GC"},
        {Scheme::kSteins, CounterMode::kSplit, "Steins-SC"},
    };
    return std::make_unique<TraceWorkload>(TraceParams{{"pqueue", "phash"}, std::move(schemes),
                                                       ctx.scaled(10000), ctx.scaled(500), 100,
                                                       25, true});
  }
  return nullptr;
}

}  // namespace perfbench
