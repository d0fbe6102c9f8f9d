// The log-structured engine: on-media codecs, WAL append/replay with torn
// tails, sorted-run write/read, manifest install/read, and the LsmStore's
// end-to-end behavior (flush, compaction, recovery, degraded mode).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "kv/lsm/format.hpp"
#include "kv/lsm/lsm_store.hpp"
#include "kv/lsm/lsm_ycsb.hpp"
#include "kv/lsm/manifest.hpp"
#include "kv/lsm/sorted_run.hpp"
#include "kv/lsm/wal.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace steins::lsm {
namespace {

using testutil::small_config;

LsmLayout small_layout() {
  LsmLayout layout;
  layout.manifest_blocks = 4;
  layout.wal_blocks = 128;
  layout.arena_blocks = 4096;
  return layout;
}

LsmConfig small_engine() {
  LsmConfig cfg;
  cfg.memtable_limit_bytes = 512;
  cfg.l0_compact_trigger = 3;
  cfg.index_every = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Codecs

TEST(LsmFormat, WalRecordRoundTripsAndRejectsDamage) {
  WalRecord rec;
  rec.epoch = 7;
  rec.seq = 42;
  rec.key = 0xabcdef;
  rec.kind = WalKind::kPut;
  rec.value = "payload-bytes";
  std::string bytes;
  encode_wal_record(rec, bytes);
  EXPECT_EQ(bytes.size(), wal_record_bytes(rec.value.size()));

  WalRecord out;
  std::size_t encoded = 0;
  const auto* p = reinterpret_cast<const std::uint8_t*>(bytes.data());
  ASSERT_EQ(decode_wal_record(p, bytes.size(), 7, &out, &encoded), WalDecode::kOk);
  EXPECT_EQ(encoded, bytes.size());
  EXPECT_EQ(out.seq, rec.seq);
  EXPECT_EQ(out.key, rec.key);
  EXPECT_EQ(out.value, rec.value);

  // Wrong epoch: a stale survivor, not this log's record.
  EXPECT_EQ(decode_wal_record(p, bytes.size(), 8, &out, &encoded),
            WalDecode::kInvalid);
  // Truncated: the reader must ask for more, not misparse.
  EXPECT_EQ(decode_wal_record(p, bytes.size() - 1, 7, &out, &encoded),
            WalDecode::kNeedMore);
  // Any flipped byte (value or trailer) kills the crc/commit check.
  for (const std::size_t i : {std::size_t{33}, bytes.size() - 9, bytes.size() - 1}) {
    std::string dam = bytes;
    dam[i] = static_cast<char>(dam[i] ^ 0x40);
    EXPECT_EQ(decode_wal_record(reinterpret_cast<const std::uint8_t*>(dam.data()),
                                dam.size(), 7, &out, &encoded),
              WalDecode::kInvalid)
        << "byte " << i;
  }
}

TEST(LsmFormat, RunFooterRoundTripsAndValidates) {
  std::string data;
  encode_run_entry(1, WalKind::kPut, "abc", data);
  encode_run_entry(2, WalKind::kErase, "", data);
  std::string index;
  put_u64(index, 1);
  put_u64(index, 0);

  RunFooter f;
  f.run_id = 9;
  f.entries = 2;
  f.data = OffsetSize{0, data.size()};
  f.index = OffsetSize{kBlockSize, index.size()};
  f.crc = run_footer_crc(f, reinterpret_cast<const std::uint8_t*>(data.data()),
                         reinterpret_cast<const std::uint8_t*>(index.data()));
  const Block b = encode_run_footer(f);
  RunFooter out;
  ASSERT_TRUE(decode_run_footer(b, &out));
  EXPECT_EQ(out.run_id, 9u);
  EXPECT_EQ(out.entries, 2u);
  EXPECT_EQ(out.crc, f.crc);

  Block bad = b;
  bad[3] ^= 1;  // magic
  EXPECT_FALSE(decode_run_footer(bad, &out));
}

TEST(LsmFormat, ManifestRoundTripsAndRejectsDamage) {
  ManifestData m;
  m.version = 12;
  m.wal_epoch = 4;
  m.next_seq = 99;
  m.next_run_id = 7;
  m.runs.push_back(RunMeta{1, 0, 0, 8});
  m.runs.push_back(RunMeta{5, 1, 100, 32});
  std::string bytes;
  encode_manifest(m, bytes);
  EXPECT_EQ(bytes.size(), manifest_encoded_bytes(m.runs.size()));

  ManifestData out;
  ASSERT_TRUE(decode_manifest(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                              bytes.size(), &out));
  EXPECT_EQ(out.version, 12u);
  EXPECT_EQ(out.runs.size(), 2u);
  EXPECT_EQ(out.runs[1].start_block, 100u);

  std::string dam = bytes;
  dam[20] = static_cast<char>(dam[20] ^ 0x10);
  EXPECT_FALSE(decode_manifest(reinterpret_cast<const std::uint8_t*>(dam.data()),
                               dam.size(), &out));
}

// ---------------------------------------------------------------------------
// WAL over the secure path

TEST(LsmWal, AppendsReplayAndStopAtTornTail) {
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  std::uint64_t persists = 0;
  Wal wal(sys, layout, [&](Addr addr, const char*) {
    sys.persist(addr);
    ++persists;
  });
  wal.reset(3);
  for (std::uint64_t i = 0; i < 20; ++i) {
    WalRecord rec;
    rec.epoch = 3;
    rec.seq = i + 1;
    rec.key = i % 5;
    rec.kind = i % 4 == 3 ? WalKind::kErase : WalKind::kPut;
    if (rec.kind == WalKind::kPut) rec.value = "value-" + std::to_string(i);
    wal.append(rec);
  }
  EXPECT_GT(persists, 0u);

  Wal reader(sys, layout, [&](Addr addr, const char*) { sys.persist(addr); });
  Wal::ReplayResult rep = reader.replay(3);
  ASSERT_EQ(rep.records.size(), 20u);
  EXPECT_FALSE(rep.torn_tail);
  EXPECT_EQ(rep.records.back().seq, 20u);
  EXPECT_EQ(reader.offset(), wal.offset());

  // Clobber the middle of the last record (torn append): replay stops
  // before it and reports the torn tail.
  const std::uint64_t tail_block = (wal.offset() - 4) / kBlockSize;
  Block b = sys.load(layout.wal_base() + tail_block * kBlockSize);
  b[17] ^= 0xff;
  sys.store(layout.wal_base() + tail_block * kBlockSize, b);
  sys.persist(layout.wal_base() + tail_block * kBlockSize);
  Wal reader2(sys, layout, [&](Addr addr, const char*) { sys.persist(addr); });
  Wal::ReplayResult rep2 = reader2.replay(3);
  EXPECT_LT(rep2.records.size(), 20u);

  // A different epoch sees an empty log: stale bytes fail the epoch check.
  Wal reader3(sys, layout, [&](Addr addr, const char*) { sys.persist(addr); });
  Wal::ReplayResult rep3 = reader3.replay(4);
  EXPECT_EQ(rep3.records.size(), 0u);
  EXPECT_FALSE(rep3.torn_tail);
}

// ---------------------------------------------------------------------------
// Sorted runs

TEST(LsmRun, WriteReadFindAndChecksum) {
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  RunImage img;
  for (std::uint64_t k = 0; k < 50; ++k) {
    if (k % 7 == 3) {
      run_image_append(&img, k * 2, WalKind::kErase, "", 4);
    } else {
      run_image_append(&img, k * 2, WalKind::kPut, "val" + std::to_string(k), 4);
    }
  }
  const Extent ext{16, img.blocks_needed()};
  write_run(sys, layout, ext, 11, img,
            [&](Addr addr, const char*) { sys.persist(addr); }, "flush");

  auto opened = RunReader::open(sys, layout, ext, 11, /*verify_checksum=*/true);
  ASSERT_TRUE(opened.has_value()) << opened.status().to_string();
  const RunReader& reader = opened.value();
  EXPECT_EQ(reader.entries(), 50u);
  EXPECT_EQ(reader.min_key(), 0u);
  EXPECT_EQ(reader.max_key(), 98u);

  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto found = reader.find(sys, k * 2);
    ASSERT_TRUE(found.has_value()) << "key " << k * 2;
    if (k % 7 == 3) {
      EXPECT_EQ(found->kind, WalKind::kErase);
    } else {
      EXPECT_EQ(found->value, "val" + std::to_string(k));
    }
    EXPECT_FALSE(reader.find(sys, k * 2 + 1).has_value());
  }
  EXPECT_EQ(reader.load_all(sys).size(), 50u);

  // Wrong run id and damaged data must both fail a validating open.
  EXPECT_FALSE(RunReader::open(sys, layout, ext, 12, true).has_value());
  Block b = sys.load(layout.arena_base() + ext.start_block * kBlockSize);
  b[5] ^= 0x20;
  sys.store(layout.arena_base() + ext.start_block * kBlockSize, b);
  const auto damaged = RunReader::open(sys, layout, ext, 11, true);
  EXPECT_FALSE(damaged.has_value());
  EXPECT_EQ(damaged.status().code(), ErrorCode::kIntegrity);
}

// ---------------------------------------------------------------------------
// Manifest

TEST(LsmManifest, InstallCommitsAtomically) {
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  ManifestStore ms(sys, layout, [&](Addr addr, const char*) { sys.persist(addr); });

  ManifestData m;
  bool pristine = false;
  ASSERT_TRUE(ms.read_committed(&m, &pristine).ok());
  EXPECT_TRUE(pristine);

  m.version = 1;
  m.wal_epoch = 1;
  ms.install(m);
  m.version = 2;
  m.runs.push_back(RunMeta{1, 0, 0, 4});
  ms.install(m);

  ManifestData out;
  ASSERT_TRUE(ms.read_committed(&out, &pristine).ok());
  EXPECT_FALSE(pristine);
  EXPECT_EQ(out.version, 2u);
  ASSERT_EQ(out.runs.size(), 1u);

  // Clobber the committed replica: the read must detect, not serve.
  const int replica = static_cast<int>(out.version & 1);
  Block garbage;
  garbage.fill(0x5a);
  for (std::size_t b = 0; b < layout.manifest_blocks; ++b) {
    sys.store(layout.manifest_addr(replica) + b * kBlockSize, garbage);
  }
  const Status s = ms.read_committed(&out, &pristine);
  EXPECT_EQ(s.code(), ErrorCode::kIntegrity);
}

// ---------------------------------------------------------------------------
// The engine

TEST(LsmStore, PutGetEraseThroughFlushesAndCompactions) {
  System sys(small_config(), Scheme::kSteins);
  LsmStore store(sys, small_layout(), small_engine());
  ASSERT_TRUE(store.open().ok());

  std::map<std::uint64_t, std::string> model;
  Xoshiro256 rng(7);
  for (std::uint64_t i = 0; i < 400; ++i) {
    const std::uint64_t key = rng.below(40);
    const std::uint64_t roll = rng.below(10);
    if (roll < 7) {
      std::string v = "v";
      v += std::to_string(i) + "-" + std::to_string(key);
      store.put(key, v);
      model[key] = std::move(v);
    } else if (roll < 9) {
      EXPECT_EQ(store.erase(key), model.erase(key) > 0) << "key " << key;
    } else {
      const auto got = store.get(key);
      const auto want = model.find(key);
      if (want == model.end()) {
        EXPECT_FALSE(got.has_value()) << "key " << key;
      } else {
        ASSERT_TRUE(got.has_value()) << "key " << key;
        EXPECT_EQ(*got, want->second);
      }
    }
  }
  // The tiny memtable must have produced real structural traffic.
  EXPECT_GT(store.stats().flushes, 0u);
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_EQ(store.dump(), model);

  // Point reads agree with the dump after the dust settles.
  for (const auto& [key, value] : model) {
    const auto got = store.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
}

TEST(LsmStore, RecoversAcrossCleanReopen) {
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  const LsmConfig engine = small_engine();
  std::map<std::uint64_t, std::string> model;
  {
    LsmStore store(sys, layout, engine);
    ASSERT_TRUE(store.open().ok());
    for (std::uint64_t i = 0; i < 120; ++i) {
      std::string v = "val-" + std::to_string(i);
      store.put(i % 30, v);
      model[i % 30] = std::move(v);
    }
    store.erase(3);
    model.erase(3);
  }
  // A new engine instance over the same region recovers from manifest+WAL.
  LsmStore reopened(sys, layout, engine);
  ASSERT_TRUE(reopened.open().ok());
  EXPECT_EQ(reopened.dump(), model);
  EXPECT_FALSE(reopened.wal_replay_torn());
}

TEST(LsmStore, SurvivesCrashAndRecoverAtRest) {
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  const LsmConfig engine = small_engine();
  std::map<std::uint64_t, std::string> model;
  {
    LsmStore store(sys, layout, engine);
    ASSERT_TRUE(store.open().ok());
    for (std::uint64_t i = 0; i < 200; ++i) {
      std::string v = "crash-" + std::to_string(i);
      store.put(i % 25, v);
      model[i % 25] = std::move(v);
    }
  }
  const RecoveryResult r = sys.crash_and_recover();
  ASSERT_TRUE(r.ok()) << r.attack_detail;
  sys.resync_truth_after_crash();
  LsmStore reopened(sys, layout, engine);
  reopened.apply_recovery_report(r);
  ASSERT_TRUE(reopened.open().ok());
  EXPECT_EQ(reopened.dump(), model);
}

TEST(LsmStore, WorksUnderEveryScheme) {
  for (const Scheme scheme : {Scheme::kWriteBack, Scheme::kAnubis, Scheme::kStar,
                              Scheme::kSteins, Scheme::kScue}) {
    System sys(small_config(), scheme);
    LsmStore store(sys, small_layout(), small_engine());
    ASSERT_TRUE(store.open().ok());
    std::map<std::uint64_t, std::string> model;
    for (std::uint64_t i = 0; i < 150; ++i) {
      std::string v = "s";
      v += std::to_string(i);
      store.put(i % 20, v);
      model[i % 20] = std::move(v);
    }
    EXPECT_EQ(store.dump(), model) << "scheme " << static_cast<int>(scheme);
  }
}

TEST(LsmStore, CompactionIsDeterministicAcrossMergeJobs) {
  std::map<std::uint64_t, std::string> dumps[2];
  LsmStats stats[2];
  for (int i = 0; i < 2; ++i) {
    System sys(small_config(), Scheme::kSteins);
    LsmConfig engine = small_engine();
    engine.merge_jobs = i == 0 ? 1 : 4;
    LsmStore store(sys, small_layout(), engine);
    ASSERT_TRUE(store.open().ok());
    for (std::uint64_t op = 0; op < 500; ++op) {
      const std::uint64_t key = (op * 17) % 60;
      if (op % 9 == 8) {
        store.erase(key);
      } else {
        std::string v = "d";
        v += std::to_string(op);
        store.put(key, v);
      }
    }
    store.flush();
    store.compact();
    dumps[i] = store.dump();
    stats[i] = store.stats();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  // Identical structural traffic, not just identical contents: the merge
  // is bit-deterministic, so run geometry and barrier counts match too.
  EXPECT_EQ(stats[0].run_blocks_written, stats[1].run_blocks_written);
  EXPECT_EQ(stats[0].persist_barriers, stats[1].persist_barriers);
}

TEST(LsmStore, ReadOnlyModeRejectsWritesTyped) {
  System sys(small_config(), Scheme::kSteins);
  LsmStore store(sys, small_layout(), small_engine());
  ASSERT_TRUE(store.open().ok());
  store.put(1, "one");
  store.set_read_only(true);
  EXPECT_EQ(store.try_put(2, "two").code(), ErrorCode::kReadOnly);
  EXPECT_THROW(store.put(2, "two"), StatusError);
  const auto got = store.try_get(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(**got, "one");
}

TEST(LsmStore, WalFillTriggersFlushBeforeOverflow) {
  System sys(small_config(), Scheme::kSteins);
  LsmLayout layout = small_layout();
  layout.wal_blocks = 8;  // 512 B log: a handful of records fills it
  LsmConfig engine = small_engine();
  engine.memtable_limit_bytes = 1 << 20;  // never flush on memtable size
  LsmStore store(sys, layout, engine);
  ASSERT_TRUE(store.open().ok());
  std::map<std::uint64_t, std::string> model;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::string v = "wal-fill-" + std::to_string(i);
    store.put(i, v);
    model[i] = std::move(v);
  }
  EXPECT_GT(store.stats().flushes, 0u);  // forced by WAL capacity
  EXPECT_EQ(store.dump(), model);
}

TEST(LsmStore, BackgroundCompactionMatchesForegroundFinalState) {
  // Same op stream, background merge on and off: after a final explicit
  // compact() both modes must hold the identical fully-folded image.
  std::map<std::uint64_t, std::string> dumps[2];
  for (int mode = 0; mode < 2; ++mode) {
    System sys(small_config(), Scheme::kSteins);
    LsmConfig engine = small_engine();
    engine.background_compaction = mode == 1;
    LsmStore store(sys, small_layout(), engine);
    ASSERT_TRUE(store.open().ok());
    Xoshiro256 rng(21);
    std::map<std::uint64_t, std::string> model;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const std::uint64_t key = rng.below(60);
      if (rng.below(10) < 8) {
        std::string v = "bgv-" + std::to_string(i);
        store.put(key, v);
        model[key] = std::move(v);
      } else {
        EXPECT_EQ(store.erase(key), model.erase(key) > 0) << "key " << key;
      }
    }
    store.compact();
    EXPECT_FALSE(store.compaction_pending());
    EXPECT_EQ(store.dump(), model);
    dumps[mode] = store.dump();
    if (mode == 1) {
      // The trigger fired with the flag on: merges actually ran on the pool.
      EXPECT_GT(store.stats().bg_compactions, 0u);
    }
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(LsmStore, BackgroundMergeRacesWalCommitsAndJoinsCleanly) {
  System sys(small_config(), Scheme::kSteins);
  LsmConfig engine = small_engine();
  engine.background_compaction = true;
  LsmStore store(sys, small_layout(), engine);
  ASSERT_TRUE(store.open().ok());

  std::map<std::uint64_t, std::string> model;
  std::uint64_t i = 0;
  for (; i < 1000 && !store.compaction_pending(); ++i) {
    std::string v = "race-" + std::to_string(i);
    store.put(i % 50, v);
    model[i % 50] = std::move(v);
  }
  ASSERT_TRUE(store.compaction_pending()) << "trigger never fired";

  // Foreground WAL commits and reads race the in-flight merge.
  for (std::uint64_t j = 0; j < 10; ++j, ++i) {
    std::string v = "race-" + std::to_string(i);
    store.put(i % 50, v);
    model[i % 50] = std::move(v);
  }
  for (const auto& [key, value] : model) {
    const auto got = store.get(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    EXPECT_EQ(*got, value);
  }

  store.compact_join();
  EXPECT_FALSE(store.compaction_pending());
  EXPECT_GE(store.stats().bg_compactions, 1u);
  EXPECT_EQ(store.dump(), model);
}

TEST(LsmStore, AbandonedBackgroundMergeIsCrashSafe) {
  // Dying with a merge in flight is exactly a crash before the join: the
  // output was never written, the committed manifest still references
  // every input, and the WAL tail replays.
  System sys(small_config(), Scheme::kSteins);
  const LsmLayout layout = small_layout();
  LsmConfig engine = small_engine();
  engine.background_compaction = true;
  std::map<std::uint64_t, std::string> model;
  {
    LsmStore store(sys, layout, engine);
    ASSERT_TRUE(store.open().ok());
    std::uint64_t i = 0;
    for (; i < 1000 && !store.compaction_pending(); ++i) {
      std::string v = "aband-" + std::to_string(i);
      store.put(i % 40, v);
      model[i % 40] = std::move(v);
    }
    ASSERT_TRUE(store.compaction_pending());
    for (std::uint64_t j = 0; j < 5; ++j, ++i) {
      std::string v = "aband-" + std::to_string(i);
      store.put(i % 40, v);
      model[i % 40] = std::move(v);
    }
    // Destructor abandons the pending merge; nothing installs.
  }
  LsmStore reopened(sys, layout, engine);
  ASSERT_TRUE(reopened.open().ok());
  EXPECT_EQ(reopened.dump(), model);
}

TEST(LsmYcsb, RunsMixesAndVerifies) {
  SystemConfig cfg = small_config();
  LsmYcsbConfig ycfg;
  ycfg.ops = 600;
  ycfg.keys = 128;
  ycfg.layout = small_layout();
  ycfg.engine = small_engine();
  ycfg.verify = true;
  for (const kv::Mix mix : {kv::Mix::kA, kv::Mix::kC, kv::Mix::kF}) {
    ycfg.mix = mix;
    const LsmYcsbResult res = run_lsm_ycsb(cfg, Scheme::kSteins, ycfg);
    EXPECT_TRUE(res.verified) << kv::mix_name(mix);
    EXPECT_EQ(res.ops, ycfg.ops);
    EXPECT_EQ(res.reads + res.updates, ycfg.ops);
    EXPECT_GT(res.kops_per_sec, 0.0);
    EXPECT_EQ(res.all_lat.count(), ycfg.ops);
    if (mix == kv::Mix::kC) {
      EXPECT_EQ(res.updates, 0u);
      EXPECT_EQ(res.write_amp, 0.0);
    } else {
      EXPECT_GT(res.updates, 0u);
      EXPECT_GT(res.write_amp, 1.0);
      EXPECT_GT(res.logical_write_amp, 1.0);
      // The secure path always costs more than the engine's own traffic.
      EXPECT_GT(res.write_amp, res.logical_write_amp);
    }
  }
}

}  // namespace
}  // namespace steins::lsm
