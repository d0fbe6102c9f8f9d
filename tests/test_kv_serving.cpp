// The KV serving engine: jobs-sweep bit-identity and the
// crash-at-access-boundary matrix under every routing (hash, load-aware,
// interleaved), group commit, load-aware balancing, admission-queue
// overload shedding, and config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "kv/serving.hpp"
#include "test_util.hpp"

namespace steins::kv {
namespace {

using testutil::small_config;

ServingConfig small_serving(unsigned shards, std::uint64_t ops = 6000) {
  ServingConfig scfg;
  scfg.mix = Mix::kA;
  scfg.clients = 3;
  scfg.shards = shards;
  scfg.ops = ops;
  scfg.keys = 1200;
  scfg.slots = std::size_t{1} << 12;
  scfg.seed = 11;
  scfg.epoch_ops = 512;  // several epochs even at test sizing
  return scfg;
}

void expect_identical(const ServingResult& a, const ServingResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.image_digest, b.image_digest) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.updates, b.updates) << what;
  EXPECT_EQ(a.shed_ops, b.shed_ops) << what;
  EXPECT_EQ(a.degraded_shards, b.degraded_shards) << what;
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.nvm_writes, b.nvm_writes) << what;
  EXPECT_EQ(a.commit_writes, b.commit_writes) << what;
  EXPECT_EQ(a.all_lat.count(), b.all_lat.count()) << what;
  for (const double p : {50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(a.all_lat.percentile(p), b.all_lat.percentile(p))
        << what << " p" << p;
    EXPECT_DOUBLE_EQ(a.read_lat.percentile(p), b.read_lat.percentile(p))
        << what << " p" << p;
    EXPECT_DOUBLE_EQ(a.update_lat.percentile(p), b.update_lat.percentile(p))
        << what << " p" << p;
  }
  EXPECT_DOUBLE_EQ(a.batch_sizes.mean(), b.batch_sizes.mean()) << what;
  ASSERT_EQ(a.shards.size(), b.shards.size()) << what;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].keys, b.shards[s].keys) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].ops, b.shards[s].ops) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].shed, b.shards[s].shed) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].busy, b.shards[s].busy) << what << " shard " << s;
    EXPECT_EQ(a.shards[s].commit_writes, b.shards[s].commit_writes)
        << what << " shard " << s;
  }
}

class KvServingRouted : public ::testing::TestWithParam<Routing> {};

TEST_P(KvServingRouted, JobsSweepIsBitIdentical) {
  const SystemConfig cfg = small_config();
  ServingConfig base = small_serving(4);
  base.routing = GetParam();
  ServingConfig scfg = base;
  scfg.jobs = 1;
  const ServingResult ref = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(ref.ops, base.ops);
  EXPECT_GT(ref.image_digest, 0u);
  for (const unsigned jobs : {2u, 3u, 4u, 8u}) {
    scfg.jobs = jobs;
    const ServingResult got = run_sharded_serving(cfg, Scheme::kSteins, scfg);
    expect_identical(ref, got, "jobs=" + std::to_string(jobs));
  }
}

TEST(KvServing, OneShardMatchesManyShardImageAcrossJobs) {
  // Shard count changes the topology (so latencies legitimately differ),
  // but for every shard count the jobs sweep must agree with itself.
  const SystemConfig cfg = small_config();
  for (const unsigned shards : {1u, 2u}) {
    ServingConfig scfg = small_serving(shards, 3000);
    scfg.jobs = 1;
    const ServingResult a = run_sharded_serving(cfg, Scheme::kScue, scfg);
    scfg.jobs = shards;
    const ServingResult b = run_sharded_serving(cfg, Scheme::kScue, scfg);
    expect_identical(a, b, "shards=" + std::to_string(shards));
  }
}

TEST(KvServing, GroupCommitOffAndOnCommitTheSameImage) {
  // Group commit coalesces persists; it must never change WHAT is durable
  // at the end of a clean run, only how many commit-block writes it took.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.group_commit_window = 0;
  const ServingResult off = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  scfg.group_commit_window = 64;
  const ServingResult on = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(off.image_digest, on.image_digest);
  EXPECT_EQ(off.ops, on.ops);
  EXPECT_LT(on.commit_writes, off.commit_writes)
      << "group commit coalesced nothing";
  EXPECT_GT(on.batch_sizes.mean(), 1.0);
}

TEST(KvServing, LoadAwareRoutingBalancesHotKeys) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4);
  scfg.zipf_s = 1.2;  // aggressively hot head
  scfg.routing = Routing::kLoadAware;
  const ServingResult load = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  scfg.routing = Routing::kHash;
  const ServingResult hash = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  const auto imbalance = [](const ServingResult& r) {
    std::uint64_t hi = 0, lo = ~std::uint64_t{0};
    for (const ShardServingStats& s : r.shards) {
      hi = std::max(hi, s.ops);
      lo = std::min(lo, s.ops);
    }
    return static_cast<double>(hi) / static_cast<double>(std::max<std::uint64_t>(lo, 1));
  };
  EXPECT_LE(imbalance(load), imbalance(hash) + 1e-9);
  // Load-aware keeps the busiest shard's share close to fair.
  std::uint64_t busiest = 0;
  for (const ShardServingStats& s : load.shards) busiest = std::max(busiest, s.ops);
  EXPECT_LT(static_cast<double>(busiest) / static_cast<double>(load.ops), 0.5);
}

TEST(KvServing, AdmissionOverflowShedsIntoDegradedVerdicts) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.queue_depth = 64;  // far below ops-per-epoch-per-shard
  const ServingResult r = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_GT(r.shed_ops, 0u);
  EXPECT_GT(r.degraded_shards, 0u);
  // Shed ops are typed verdicts, never silently dropped from accounting.
  EXPECT_EQ(r.ops + r.shed_ops, r.offered_ops);
  std::uint64_t shard_shed = 0;
  for (const ShardServingStats& s : r.shards) {
    shard_shed += s.shed;
    if (s.shed > 0) {
      EXPECT_TRUE(s.degraded);
    }
  }
  EXPECT_EQ(shard_shed, r.shed_ops);

  // Shedding consumes client RNG identically: the unbounded run serves the
  // same offered schedule (same digest inputs differ only by what
  // executed, so just check determinism of the bounded run itself).
  const ServingResult again = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(r.image_digest, again.image_digest);
  EXPECT_EQ(r.shed_ops, again.shed_ops);
}

TEST_P(KvServingRouted, CrashBoundarySweepReportsZeroSilent) {
  // Strided sweep over the global access sequence for every scheme; any
  // silent divergence fails. WriteBack passes by being detected as
  // unrecoverable.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2, 900);
  scfg.routing = GetParam();
  scfg.jobs = 2;
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kScue, Scheme::kSteins}) {
    const std::uint64_t total = count_serving_accesses(cfg, scheme, scfg);
    ASSERT_GT(total, 0u);
    const std::uint64_t stride = std::max<std::uint64_t>(total / 5, 1);
    for (std::uint64_t at = stride / 2; at < total; at += stride) {
      ServingCrashOptions opt;
      opt.crash_at = at;
      const ServingCrashReport rep = run_serving_crash(cfg, scheme, scfg, opt);
      EXPECT_TRUE(rep.pass(scheme))
          << scheme_name(scheme, cfg.counter_mode) << " at access " << at << "/"
          << total << ": " << rep.detail;
      EXPECT_EQ(rep.crash_at, at);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Routings, KvServingRouted,
                         ::testing::Values(Routing::kHash, Routing::kLoadAware,
                                           Routing::kInterleave),
                         [](const ::testing::TestParamInfo<Routing>& info) {
                           std::string name = routing_name(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(KvServing, CrashWithGroupCommitWindowHonorsDurableBoundary) {
  // A crash mid-window must expose exactly the commit-block writes that
  // were issued below the boundary — buffered-but-unflushed commit words
  // are legitimately lost, never silently resurrected.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2, 900);
  scfg.group_commit_window = 32;
  const std::uint64_t total = count_serving_accesses(cfg, Scheme::kSteins, scfg);
  const std::uint64_t stride = std::max<std::uint64_t>(total / 7, 1);
  for (std::uint64_t at = stride / 3; at < total; at += stride) {
    ServingCrashOptions opt;
    opt.crash_at = at;
    const ServingCrashReport rep = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
    EXPECT_TRUE(rep.pass(Scheme::kSteins)) << "at " << at << ": " << rep.detail;
  }
}

TEST(KvServing, CrashRecoveryIsJobsIndependent) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4, 1200);
  const std::uint64_t total = count_serving_accesses(cfg, Scheme::kSteins, scfg);
  ServingCrashOptions opt;
  opt.crash_at = total / 2;
  scfg.jobs = 1;
  const ServingCrashReport a = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
  scfg.jobs = 4;
  const ServingCrashReport b = run_serving_crash(cfg, Scheme::kSteins, scfg, opt);
  EXPECT_EQ(a.crash_at, b.crash_at);
  EXPECT_EQ(a.committed_slots, b.committed_slots);
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.salvaged, b.salvaged);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_TRUE(a.pass(Scheme::kSteins)) << a.detail;
}

TEST(KvServing, MultiShardThreadedRunIsClean) {
  // The TSan lane runs this filter: real worker threads, several epochs,
  // every shard exercised. Bit-identity vs jobs=1 is checked elsewhere;
  // here the point is the data-race-free execution itself.
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(4, 4000);
  scfg.jobs = 4;
  const ServingResult r = run_sharded_serving(cfg, Scheme::kSteins, scfg);
  EXPECT_EQ(r.ops, scfg.ops);
  EXPECT_GT(r.image_digest, 0u);
  for (const ShardServingStats& s : r.shards) EXPECT_GT(s.ops, 0u);
}

TEST(KvServing, RejectsNonsenseConfigurations) {
  const SystemConfig cfg = small_config();
  ServingConfig scfg = small_serving(2);
  scfg.shards = 0;
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.clients = 0;
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.slots = 1000;  // not a power of two
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.keys = scfg.slots * 4;  // overflows the capacity guard
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg = small_serving(2);
  scfg.value_bytes = kMaxValueBytes + 1;  // would not fit a record
  EXPECT_THROW(validate_serving_config(cfg, scfg), std::invalid_argument);
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, scfg), std::invalid_argument);
  scfg.value_bytes = kMaxValueBytes;
  EXPECT_NO_THROW(validate_serving_config(cfg, scfg));
}

TEST(KvServingRouting, NamesRoundTrip) {
  EXPECT_EQ(parse_routing("hash"), Routing::kHash);
  EXPECT_EQ(parse_routing("load"), Routing::kLoadAware);
  EXPECT_EQ(parse_routing(routing_name(Routing::kHash)), Routing::kHash);
  EXPECT_EQ(parse_routing(routing_name(Routing::kLoadAware)), Routing::kLoadAware);
  EXPECT_EQ(parse_routing("interleave"), Routing::kInterleave);
  EXPECT_EQ(parse_routing(routing_name(Routing::kInterleave)), Routing::kInterleave);
  EXPECT_FALSE(parse_routing("round-robin").has_value());
}

}  // namespace
}  // namespace steins::kv
