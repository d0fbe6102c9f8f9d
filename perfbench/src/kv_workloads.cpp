// KV workloads: `kv-serve` (the sharded serving engine) and `lsm-a` (the
// log-structured engine driven op by op).
#include <algorithm>
#include <map>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "kv/lsm/lsm_store.hpp"
#include "kv/serving.hpp"
#include "sim/system.hpp"

namespace perfbench {
namespace {

using namespace steins;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class KvServe final : public Workload {
 public:
  explicit KvServe(const RunContext& ctx) {
    scfg_.mix = kv::Mix::kA;
    scfg_.clients = 4;
    scfg_.shards = 4;
    scfg_.ops = ctx.scaled(20000);
    scfg_.keys = 4096;
    scfg_.zipf_s = 0.99;
    scfg_.seed = ctx.seed;
    scfg_.routing = kv::Routing::kLoadAware;
    scfg_.group_commit_window = 64;
    // Timed calls replay inline (jobs = 1): worker threads added call-time
    // tail noise without adding throughput on a 4-vCPU host. The traced
    // pass runs the parallel engine too, for kv.host_scaling and the
    // jobs-identity check.
    scfg_.jobs = 1;
    parallel_jobs_ = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  }

  void pass(RunContext& ctx, bool traced) override {
    HostStats& host = ctx.host_for(traced);
    Tracer& tr = ctx.tracer;

    // Set-up cost every serving call pays: controllers, routing, preload
    // and the final image read-back, measured on a one-op call.
    kv::ServingConfig one = scfg_;
    one.ops = 1;
    std::uint64_t t0 = now_ns();
    check(ctx, kv::run_sharded_serving(ctx.cfg, Scheme::kSteins, one), one);
    host.add_setup(static_cast<double>(now_ns() - t0) * 1e-9);

    tr.set_enabled(traced);
    std::vector<double> record;
    kv::ServingResult res[2];
    const Scheme schemes[2] = {Scheme::kWriteBack, Scheme::kSteins};
    for (int i = 0; i < 2; ++i) {
      tr.begin_request(requests_++);
      t0 = now_ns();
      res[i] = i == 1 ? tr.time(Call::kKvServe,
                                [&] { return kv::run_sharded_serving(ctx.cfg, schemes[i], scfg_); })
                      : kv::run_sharded_serving(ctx.cfg, schemes[i], scfg_);
      host.add_unit(static_cast<double>(now_ns() - t0) * 1e-9);
      tr.end_request();
      host.ops += res[i].offered_ops;
      ctx.attempted += res[i].offered_ops;
      check(ctx, res[i], scfg_);
      for (const double v :
           {static_cast<double>(res[i].makespan), static_cast<double>(res[i].nvm_writes),
            static_cast<double>(res[i].commit_writes), static_cast<double>(res[i].ops),
            static_cast<double>(res[i].image_digest >> 32),
            static_cast<double>(res[i].image_digest & 0xffffffffu)}) {
        record.push_back(v);
      }
    }
    // The durable image is plaintext, so it is the same under every scheme.
    if (res[0].image_digest != res[1].image_digest) {
      ctx.fail("kv-serve image digest differs between WB-GC and Steins-GC");
    }

    if (traced) {
      tr.begin_request(requests_++);
      tr.time(Call::kKvPlan, [&] { return kv::count_serving_accesses(ctx.cfg, Scheme::kSteins, scfg_); });
      kv::ServingConfig parallel = scfg_;
      parallel.jobs = parallel_jobs_;
      const kv::ServingResult p = tr.time(
          Call::kKvServeParallel, [&] { return kv::run_sharded_serving(ctx.cfg, Scheme::kSteins, parallel); });
      tr.end_request();
      if (p.image_digest != res[1].image_digest || p.makespan != res[1].makespan) {
        ctx.fail("kv-serve jobs=" + std::to_string(parallel_jobs_) + " run differs from the jobs=1 run");
      }
    }
    tr.set_enabled(false);
    check_record(ctx, reference_, std::move(record), traced, "kv-serve runs");

    if (first_.empty()) {
      first_.assign(res, res + 2);
      // Crash validation, once per run: crash at a seed-drawn access
      // boundary, recover every controller and diff the recovered image
      // against the durable state.
      crash_ = kv::run_serving_crash(ctx.cfg, Scheme::kSteins, scfg_, kv::ServingCrashOptions{});
      if (!crash_.pass(Scheme::kSteins) || !crash_.recovery_ok) {
        ctx.fail("kv-serve crash validation failed: " + crash_.detail);
      }
    }
  }

  void sim_metrics(const RunContext& ctx, Metrics& out) const override {
    const kv::ServingResult& wb = first_[0];
    const kv::ServingResult& st = first_[1];
    out.push_back({"sim_exec_norm", ratio(static_cast<double>(st.makespan), static_cast<double>(wb.makespan)), "x"});
    out.push_back({"sim_write_lat_norm", ratio(st.update_lat.mean(), wb.update_lat.mean()), "x"});
    out.push_back({"sim_traffic_norm", ratio(static_cast<double>(st.nvm_writes), static_cast<double>(wb.nvm_writes)), "x"});
    out.push_back({"sim_recovery_ms", crash_.recovery_seconds * 1e3, "ms"});
    out.push_back({"sim_kops_s", st.kops_per_sec, "kops/s"});
    out.push_back({"sim_p99_ns", st.all_lat.percentile(99.0) / ctx.cfg.cpu.freq_ghz, "ns"});
  }

  void layer_metrics(const RunContext& ctx, Metrics& out) const override {
    const Tracer& tr = ctx.tracer;
    const kv::ServingResult& st = first_[1];
    const double plan_s = tr.hist(Call::kKvPlan).mean() * 1e-9;
    const double serve_s = tr.hist(Call::kKvServe).mean() * 1e-9;
    const double parallel_s = tr.hist(Call::kKvServeParallel).mean() * 1e-9;
    double occ_min = 1.0, occ_sum = 0.0;
    for (const kv::ShardServingStats& sh : st.shards) {
      occ_min = std::min(occ_min, sh.occupancy);
      occ_sum += sh.occupancy;
    }
    out.push_back({"kv.plan_host_s", plan_s, "s"});
    out.push_back({"kv.replay_host_s", serve_s - plan_s, "s"});
    out.push_back({"kv.plan_share", ratio(plan_s, serve_s), "ratio"});
    out.push_back({"kv.host_scaling", ratio(serve_s, parallel_s), "x"});
    out.push_back({"kv.occupancy_min", occ_min, "ratio"});
    out.push_back({"kv.occupancy_mean", occ_sum / static_cast<double>(st.shards.size()), "ratio"});
    out.push_back({"kv.batch_mean", st.batch_sizes.mean(), "count"});
    out.push_back({"kv.commit_writes_per_update",
                   ratio(static_cast<double>(st.commit_writes), static_cast<double>(st.updates)), "count"});
    out.push_back({"kv.nvm_writes_per_op",
                   ratio(static_cast<double>(st.nvm_writes), static_cast<double>(st.ops)), "count"});
    out.push_back({"kv.shed_ops", static_cast<double>(st.shed_ops), "count"});
    out.push_back({"schemes.recover.sim_ms", crash_.recovery_seconds * 1e3, "ms"});
  }

 private:
  static void check(RunContext& ctx, const kv::ServingResult& r, const kv::ServingConfig& c) {
    if (r.offered_ops != c.ops || r.ops + r.shed_ops != r.offered_ops) {
      ctx.fail("kv-serve executed + shed != offered");
    }
    if (r.shed_ops != 0 || r.degraded_shards != 0) {
      ctx.failed += r.shed_ops;
      ctx.fail("kv-serve shed or degraded ops");
    }
  }

  kv::ServingConfig scfg_;
  unsigned parallel_jobs_ = 1;
  std::uint64_t requests_ = 0;
  std::vector<double> reference_;
  std::vector<kv::ServingResult> first_;
  kv::ServingCrashReport crash_;
};

/// Scatter Zipf ranks over the key universe (as kv/lsm/lsm_ycsb.cpp does).
std::uint64_t key_of_rank(std::uint64_t rank, std::uint64_t keys) {
  return (rank * 0x9e3779b97f4a7c15ULL >> 13) % keys;
}

std::string make_value(std::uint64_t key, std::uint64_t version) {
  std::string v = "k";
  v += std::to_string(key);
  v += 'v';
  v += std::to_string(version);
  v.resize(24, '.');
  return v;
}

/// Simulated outcome of one store's op phase.
struct LsmOut {
  Cycle op_cycles = 0;             // sum of per-op simulated latency
  Cycle put_cycles = 0;
  std::uint64_t puts = 0;
  std::uint64_t nvm_writes = 0;    // during ops only
  LatencyHistogram lat;            // simulated cycles per op
  std::uint64_t crashes = 0;
  double recovery_s = 0.0;
  std::uint64_t recovery_reads = 0;
  std::uint64_t recovery_nodes = 0;
  lsm::LsmStats engine;            // op phase, summed over store incarnations
};

class LsmA final : public Workload {
 public:
  explicit LsmA(const RunContext& ctx) : ops_(ctx.scaled(40000)) {
    cfg_ = ctx.cfg;
    cfg_.nvm.capacity_bytes = std::uint64_t{64} << 20;  // the LSM region is small
    // Compaction-heavy geometry: a 2 KiB memtable over 2048 keys keeps
    // flushes and L0 compactions running; merges race WAL commits on a
    // background thread.
    engine_.memtable_limit_bytes = 2048;
    engine_.l0_compact_trigger = 4;
    engine_.background_compaction = true;
  }

  void pass(RunContext& ctx, bool traced) override {
    std::vector<double> record;
    std::vector<LsmOut> outs;
    for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kSteins}) {
      LsmOut o = run_store(ctx, scheme, traced);
      for (const double v :
           {static_cast<double>(o.op_cycles), static_cast<double>(o.put_cycles),
            static_cast<double>(o.nvm_writes), o.recovery_s,
            static_cast<double>(o.engine.flushes), static_cast<double>(o.engine.compactions),
            static_cast<double>(o.engine.bg_compactions),
            static_cast<double>(o.engine.persist_barriers)}) {
        record.push_back(v);
      }
      outs.push_back(std::move(o));
    }
    check_record(ctx, reference_, std::move(record), traced, "lsm-a stores");
    if (first_.empty()) first_ = std::move(outs);
  }

  void sim_metrics(const RunContext& ctx, Metrics& out) const override {
    const LsmOut& wb = first_[0];
    const LsmOut& st = first_[1];
    const double st_s = ctx.cfg.cycles_to_seconds(st.op_cycles);
    out.push_back({"sim_exec_norm", ratio(static_cast<double>(st.op_cycles), static_cast<double>(wb.op_cycles)), "x"});
    out.push_back({"sim_write_lat_norm",
                   ratio(static_cast<double>(st.put_cycles) / static_cast<double>(st.puts),
                         static_cast<double>(wb.put_cycles) / static_cast<double>(wb.puts)),
                   "x"});
    out.push_back({"sim_traffic_norm", ratio(static_cast<double>(st.nvm_writes), static_cast<double>(wb.nvm_writes)), "x"});
    out.push_back({"sim_recovery_ms", ratio(st.recovery_s * 1e3, static_cast<double>(st.crashes)), "ms"});
    out.push_back({"sim_kops_s", ratio(static_cast<double>(ops_), st_s) / 1e3, "kops/s"});
    out.push_back({"sim_p99_ns", st.lat.percentile(99.0) / ctx.cfg.cpu.freq_ghz, "ns"});
  }

  void layer_metrics(const RunContext& ctx, Metrics& out) const override {
    const Tracer& tr = ctx.tracer;
    const LsmOut& st = first_[1];
    out.push_back({"kv.lsm.put.host_us_p50", tr.hist(Call::kLsmPut).percentile(50.0) / 1e3, "us"});
    out.push_back({"kv.lsm.put.host_us_p99", tr.hist(Call::kLsmPut).percentile(99.0) / 1e3, "us"});
    out.push_back({"kv.lsm.get.host_us_p50", tr.hist(Call::kLsmGet).percentile(50.0) / 1e3, "us"});
    out.push_back({"kv.lsm.get.host_us_p99", tr.hist(Call::kLsmGet).percentile(99.0) / 1e3, "us"});
    out.push_back({"kv.lsm.compact_join.host_ms", tr.hist(Call::kLsmJoin).mean() / 1e6, "ms"});
    out.push_back({"kv.lsm.open.host_ms", tr.hist(Call::kLsmOpen).mean() / 1e6, "ms"});
    out.push_back({"kv.lsm.flushes", static_cast<double>(st.engine.flushes), "count"});
    out.push_back({"kv.lsm.compactions", static_cast<double>(st.engine.compactions), "count"});
    out.push_back({"kv.lsm.bg_compactions", static_cast<double>(st.engine.bg_compactions), "count"});
    out.push_back({"kv.lsm.persists_per_put",
                   ratio(static_cast<double>(st.engine.persist_barriers), static_cast<double>(st.engine.puts)),
                   "count"});
    out.push_back({"kv.lsm.wa",
                   ratio(static_cast<double>(st.nvm_writes) * kBlockSize, static_cast<double>(st.engine.bytes_put)),
                   "x"});
    out.push_back({"kv.lsm.wa_log", st.engine.logical_write_amp(), "x"});
    const LatencyHistogram& rec = tr.hist(Call::kRecover);
    out.push_back({"schemes.recover.host_ms_p50", rec.percentile(50.0) / 1e6, "ms"});
    out.push_back({"schemes.recover.host_ms_p99", rec.percentile(99.0) / 1e6, "ms"});
    out.push_back({"sim.resync.host_ms", tr.hist(Call::kResync).mean() / 1e6, "ms"});
    out.push_back({"schemes.recover.sim_ms", ratio(st.recovery_s * 1e3, static_cast<double>(st.crashes)), "ms"});
    out.push_back({"schemes.recover.nvm_reads",
                   ratio(static_cast<double>(st.recovery_reads), static_cast<double>(st.crashes)), "count"});
    out.push_back({"schemes.recover.nodes",
                   ratio(static_cast<double>(st.recovery_nodes), static_cast<double>(st.crashes)), "count"});
  }

 private:
  static void add_stats(lsm::LsmStats& sum, const lsm::LsmStats& now, const lsm::LsmStats& base) {
    sum.puts += now.puts - base.puts;
    sum.gets += now.gets - base.gets;
    sum.bytes_put += now.bytes_put - base.bytes_put;
    sum.wal_bytes += now.wal_bytes - base.wal_bytes;
    sum.flushes += now.flushes - base.flushes;
    sum.compactions += now.compactions - base.compactions;
    sum.bg_compactions += now.bg_compactions - base.bg_compactions;
    sum.run_blocks_written += now.run_blocks_written - base.run_blocks_written;
    sum.persist_barriers += now.persist_barriers - base.persist_barriers;
  }

  void check_dump(RunContext& ctx, lsm::LsmStore& store, const std::map<std::uint64_t, std::string>& model,
                  const char* when) {
    if (store.dump() != model) {
      ctx.fail(std::string("lsm-a dump differs from the model ") + when);
      throw PassAborted{};
    }
  }

  LsmOut run_store(RunContext& ctx, Scheme scheme, bool traced) {
    HostStats& host = ctx.host_for(traced);
    Tracer& tr = ctx.tracer;
    LsmOut out;
    const lsm::LsmLayout layout;

    std::uint64_t t0 = now_ns();
    System sys(cfg_, scheme);
    auto store = std::make_unique<lsm::LsmStore>(sys, layout, engine_);
    if (!store->open().ok()) {
      ctx.fail("lsm-a initial open failed");
      throw PassAborted{};
    }
    std::map<std::uint64_t, std::string> model;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      model[k] = make_value(k, 0);
      store->put(k, model[k]);
    }
    store->flush();
    store->compact();
    lsm::LsmStats base = store->stats();
    host.add_setup(static_cast<double>(now_ns() - t0) * 1e-9);

    const bool crashes = scheme == Scheme::kSteins;
    const std::uint64_t crash_every = std::max<std::uint64_t>(1, ops_ / 10);
    Xoshiro256 rng(derive_stream_seed(ctx.seed, 0x15f));
    const ZipfSampler zipf(kKeys, 0.99);
    tr.set_enabled(traced);
    for (std::uint64_t i = 0; i < ops_; ++i) {
      // A crash, recovery and reopen before an op count in that op's time.
      t0 = now_ns();
      if (crashes && i > 0 && i % crash_every == 0) {
        // Power loss between ops: every completed put is committed.
        add_stats(out.engine, store->stats(), base);
        store.reset();
        const RecoveryReport r = tr.time(Call::kRecover, [&] { return sys.crash_and_recover(); });
        ++out.crashes;
        out.recovery_s += r.seconds;
        out.recovery_reads += r.nvm_reads;
        out.recovery_nodes += r.nodes_recovered;
        if (!r.ok()) {
          ctx.fail("lsm-a recovery not ok: " + r.summary());
          throw PassAborted{};
        }
        tr.time(Call::kResync, [&] { sys.resync_truth_after_crash(); });
        store = std::make_unique<lsm::LsmStore>(sys, layout, engine_);
        if (!tr.time(Call::kLsmOpen, [&] { return store->open(); }).ok()) {
          ctx.fail("lsm-a reopen failed");
          throw PassAborted{};
        }
        base = store->stats();
        check_dump(ctx, *store, model, "after reopen");
      }
      const std::uint64_t key = key_of_rank(zipf.sample(rng), kKeys);
      const bool write = rng.chance(0.5);
      const Cycle c0 = sys.cpu().now();
      const std::uint64_t w0 = sys.memory().stats().nvm_writes();
      tr.begin_request(i);
      if (write) {
        std::string v = make_value(key, i + 1);
        tr.time(Call::kLsmPut, [&] { store->put(key, v); });
        model[key] = std::move(v);
      } else {
        const std::optional<std::string> got = tr.time(Call::kLsmGet, [&] { return store->get(key); });
        if (got != model[key]) ctx.fail("lsm-a get of key " + std::to_string(key) + " differs from the model");
      }
      host.add_unit(static_cast<double>(now_ns() - t0) * 1e-9);
      tr.end_request();
      const Cycle sim = sys.cpu().now() - c0;
      out.op_cycles += sim;
      out.lat.add(sim);
      out.nvm_writes += sys.memory().stats().nvm_writes() - w0;
      if (write) {
        out.put_cycles += sim;
        ++out.puts;
      }
    }
    tr.time(Call::kLsmJoin, [&] { store->compact_join(); });
    tr.set_enabled(false);
    add_stats(out.engine, store->stats(), base);
    check_dump(ctx, *store, model, "at the end");
    host.ops += ops_;
    ctx.attempted += ops_;
    return out;
  }

  static constexpr std::uint64_t kKeys = 2048;
  std::uint64_t ops_;
  SystemConfig cfg_;
  lsm::LsmConfig engine_;
  std::vector<double> reference_;
  std::vector<LsmOut> first_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_workload(const std::string& name, const RunContext& ctx) {
  if (name == "kv-serve") return std::make_unique<KvServe>(ctx);
  if (name == "lsm-a") return std::make_unique<LsmA>(ctx);
  return nullptr;
}

}  // namespace perfbench
