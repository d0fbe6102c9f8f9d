// The crash-consistent KV store and its validation harness: record/commit
// encoding, round trips through every scheme's secure path, the YCSB
// driver, and the crash-at-every-persist-boundary recovery matrix.
#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <string_view>

#include "kv/kv_crash.hpp"
#include "kv/kv_store.hpp"
#include "kv/serving.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace steins::kv {
namespace {

using testutil::small_config;

TEST(KvLayout, AddressesAreDisjointAndInRegion) {
  KvLayout layout;
  layout.base = 1 << 20;
  layout.slots = 64;
  std::map<Addr, int> seen;
  for (std::size_t s = 0; s < layout.slots; ++s) {
    ++seen[layout.record_addr(s, 0)];
    ++seen[layout.record_addr(s, 1)];
    const Addr commit = layout.commit_block_addr(s);
    EXPECT_LT(layout.commit_word_offset(s) + 8, kBlockSize + 1);
    EXPECT_GE(commit, layout.base);
    EXPECT_LT(commit + kBlockSize, layout.base + layout.region_bytes() + 1);
  }
  for (const auto& [addr, n] : seen) {
    EXPECT_EQ(n, 1) << "record address " << addr << " aliased";
    EXPECT_GE(addr, layout.base);
    EXPECT_LT(addr + kBlockSize, layout.base + layout.region_bytes() + 1);
  }
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_LT(layout.home_slot(key), layout.slots);
  }
}

TEST(KvRecordCodec, RoundTripsAndRejectsCorruption) {
  const KvRecord rec{0xdeadbeefULL, 17, "value-payload"};
  Block b = encode_record(rec);
  KvRecord out;
  ASSERT_TRUE(decode_record(b, &out));
  EXPECT_EQ(out.key, rec.key);
  EXPECT_EQ(out.version, rec.version);
  EXPECT_EQ(out.value, rec.value);

  Block flipped = b;
  flipped[40] ^= 0x01;  // one bit in the value payload
  EXPECT_FALSE(decode_record(flipped, nullptr));
  Block zero{};
  KvRecord z;  // all-zero decodes only if the checksum happens to match
  EXPECT_FALSE(decode_record(zero, &z) && z.version != 0);
}

TEST(KvRecordCodec, InPlaceEncoderMatchesRecordEncoder) {
  // Serving client values of every length class, including ones shorter
  // than the "c<key>.<version>" prefix (cut) and ones padded with '~'.
  const std::uint64_t key = 123, version = 7;
  const std::map<std::size_t, std::string> want = {
      {0, ""},
      {1, "c"},
      {5, "c123."},
      {24, "c123.7~~~~~~~~~~~~~~~~~~"},
      {kMaxValueBytes, "c123.7" + std::string(kMaxValueBytes - 6, '~')},
  };
  for (const auto& [bytes, text] : want) {
    ClientValueBuffer buf;
    const std::string_view value = client_value(key, version, bytes, buf);
    EXPECT_EQ(value, text) << bytes;
    Block in_place;
    in_place.fill(0xee);  // every byte must be overwritten
    encode_record(key, version, value, &in_place);
    EXPECT_EQ(in_place, encode_record(KvRecord{key, version, text})) << bytes;
    EXPECT_TRUE(record_matches(in_place, key, version, bytes)) << bytes;
  }
}

TEST(KvRecordCodec, MatchCheckRejectsWrongFields) {
  const Block b = encode_record(KvRecord{42, 9, "payload"});
  EXPECT_TRUE(record_matches(b, 42, 9, 7));
  EXPECT_FALSE(record_matches(b, 43, 9, 7));  // key
  EXPECT_FALSE(record_matches(b, 42, 8, 7));  // version
  EXPECT_FALSE(record_matches(b, 42, 9, 6));  // length
  Block flipped = b;
  flipped[33] ^= 0x01;  // value byte: the checksum no longer matches
  EXPECT_FALSE(record_matches(flipped, 42, 9, 7));
  Block bad_sum = b;
  bad_sum[16] ^= 0x80;  // the checksum field itself
  EXPECT_FALSE(record_matches(bad_sum, 42, 9, 7));
  Block overlong = b;
  const std::uint64_t len = kMaxValueBytes + 1;
  std::memcpy(overlong.data() + 24, &len, 8);
  EXPECT_FALSE(record_matches(overlong, 42, 9, kMaxValueBytes + 1));
}

TEST(KvCommitWord, EncodeDecodeRoundTrip) {
  for (const CommitWord w : {CommitWord{1, 0, true}, CommitWord{7, 1, false},
                             CommitWord{(std::uint64_t{1} << 60) - 1, 1, true}}) {
    const CommitWord d = CommitWord::decode(w.encode());
    EXPECT_EQ(d.version, w.version);
    EXPECT_EQ(d.replica, w.replica);
    EXPECT_EQ(d.live, w.live);
    EXPECT_FALSE(d.empty());
  }
  EXPECT_TRUE(CommitWord::decode(0).empty());
}

std::string param_name(Scheme s) {
  std::string name = scheme_name(s, CounterMode::kGeneral);
  std::erase_if(name, [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); });
  return name;
}

class KvStoreScheme : public ::testing::TestWithParam<Scheme> {};

INSTANTIATE_TEST_SUITE_P(AllSchemes, KvStoreScheme,
                         ::testing::Values(Scheme::kWriteBack, Scheme::kAnubis,
                                           Scheme::kStar, Scheme::kScue, Scheme::kSteins),
                         [](const auto& info) { return param_name(info.param); });

TEST_P(KvStoreScheme, PutGetEraseRoundTrip) {
  System sys(small_config(), GetParam());
  KvLayout layout;
  layout.slots = 64;
  KvStore kv(sys, layout);

  std::map<std::uint64_t, std::string> model;
  for (std::uint64_t k = 0; k < 20; ++k) {
    std::string v = "v";
    v += std::to_string(k);
    kv.put(k, v);
    model[k] = v;
  }
  for (std::uint64_t k = 0; k < 20; k += 3) {  // updates flip replicas
    const std::string v = "updated" + std::to_string(k);
    kv.put(k, v);
    model[k] = v;
  }
  for (std::uint64_t k = 1; k < 20; k += 4) {
    EXPECT_TRUE(kv.erase(k));
    model.erase(k);
  }
  EXPECT_FALSE(kv.erase(999));
  EXPECT_EQ(kv.get(999), std::nullopt);
  for (const auto& [k, v] : model) {
    const auto got = kv.get(k);
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(kv.dump(), model);

  // The store is stateless over NVM: a second handle resumes the image.
  KvStore reopened(sys, layout);
  EXPECT_EQ(reopened.dump(), model);
}

TEST(KvStore, RejectsOversizedValuesAndFullTable) {
  System sys(small_config(), Scheme::kSteins);
  KvLayout layout;
  layout.slots = 4;
  KvStore kv(sys, layout);
  EXPECT_THROW(kv.put(1, std::string(kMaxValueBytes + 1, 'x')), std::invalid_argument);
  for (std::uint64_t k = 0; k < 4; ++k) kv.put(k, "v");
  EXPECT_THROW(kv.put(99, "overflow"), std::runtime_error);
  kv.put(2, "update still fine");  // existing keys update in place
  EXPECT_EQ(*kv.get(2), "update still fine");
}

TEST(KvStore, TombstoneSlotsAreReused) {
  System sys(small_config(), Scheme::kSteins);
  KvLayout layout;
  layout.slots = 4;
  KvStore kv(sys, layout);
  for (std::uint64_t k = 0; k < 4; ++k) kv.put(k, "v");
  ASSERT_TRUE(kv.erase(1));
  kv.put(50, "reused");  // must land in the tombstoned slot
  EXPECT_EQ(*kv.get(50), "reused");
  EXPECT_EQ(kv.dump().size(), 4u);
}

TEST(KvCrash, WriteBackIsDetectedUnrecoverable) {
  KvCrashOptions opt;
  opt.ops = 16;
  const KvCrashReport r = run_kv_crash_validation(small_config(), Scheme::kWriteBack, opt);
  EXPECT_FALSE(r.recovery_supported);
  EXPECT_TRUE(r.pass(Scheme::kWriteBack));
  EXPECT_FALSE(r.pass(Scheme::kSteins));  // the same report fails a real scheme
}

class KvCrashScheme : public ::testing::TestWithParam<Scheme> {};

INSTANTIATE_TEST_SUITE_P(RecoverableSchemes, KvCrashScheme,
                         ::testing::Values(Scheme::kAnubis, Scheme::kStar, Scheme::kScue,
                                           Scheme::kSteins),
                         [](const auto& info) { return param_name(info.param); });

// The exhaustive matrix: kill the store before EVERY persist barrier of a
// small deterministic script (the shared sweep at stride 1: one dry run,
// one trial per boundary); each crash point must recover to exactly the
// committed model.
TEST_P(KvCrashScheme, RecoversAtEveryPersistBoundary) {
  KvCrashOptions opt;
  opt.ops = 10;
  opt.keys = 4;
  opt.slots = 32;
  opt.value_bytes = 8;

  const StoreCrashMatrix m =
      run_kv_crash_matrix(small_config(), GetParam(), opt, /*stride=*/1, /*jobs=*/1);
  ASSERT_GT(m.total_persists, 0u);
  EXPECT_EQ(m.counts.total(), m.total_persists + 1);  // boundaries 0..total
  opt.crash_at = 0;
  const KvCrashReport first = run_kv_crash_validation(small_config(), GetParam(), opt);
  EXPECT_TRUE(first.pass(GetParam())) << first.detail;
  EXPECT_EQ(first.total_persists, m.total_persists);
  for (const auto& [at, detail] : m.failures) {
    ADD_FAILURE() << "crash before persist " << at << "/" << m.total_persists << ": "
                  << detail;
  }
  EXPECT_TRUE(m.counts.clean());
}

TEST(KvCrash, RandomBoundaryIsDeterministicPerSeed) {
  KvCrashOptions opt;
  opt.ops = 24;
  const KvCrashReport a = run_kv_crash_validation(small_config(), Scheme::kSteins, opt);
  const KvCrashReport b = run_kv_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(a.pass(Scheme::kSteins)) << a.detail;
  EXPECT_EQ(a.crash_at, b.crash_at);
  opt.seed = 2;
  const KvCrashReport c = run_kv_crash_validation(small_config(), Scheme::kSteins, opt);
  EXPECT_TRUE(c.pass(Scheme::kSteins)) << c.detail;
}

// The multi-client YCSB preset of the serving engine (one interleaved
// table, no group commit).
TEST(YcsbDriver, MixesProduceExpectedShapes) {
  ServingConfig ycfg = ycsb_preset();
  ycfg.clients = 3;
  ycfg.ops = 2000;
  ycfg.keys = 200;
  ycfg.slots = 1024;
  const SystemConfig cfg = small_config();

  ycfg.mix = Mix::kC;
  const ServingResult ro = run_sharded_serving(cfg, Scheme::kSteins, ycfg);
  EXPECT_EQ(ro.reads, ycfg.ops);
  EXPECT_EQ(ro.updates, 0u);
  EXPECT_EQ(ro.all_lat.count(), ycfg.ops);
  EXPECT_GT(ro.kops_per_sec, 0.0);

  ycfg.mix = Mix::kA;
  const ServingResult rw = run_sharded_serving(cfg, Scheme::kSteins, ycfg);
  EXPECT_EQ(rw.reads + rw.updates, ycfg.ops);
  EXPECT_GT(rw.updates, ycfg.ops / 3);  // ~50% updates
  EXPECT_LT(rw.updates, 2 * ycfg.ops / 3);
  EXPECT_GT(rw.nvm_writes, 0u);
  // Updates traverse two block writes; the tail must sit above reads'.
  EXPECT_GE(rw.update_lat.percentile(50), ro.read_lat.percentile(50));

  // Determinism: identical config twice gives identical results.
  const ServingResult again = run_sharded_serving(cfg, Scheme::kSteins, ycfg);
  EXPECT_EQ(again.makespan, rw.makespan);
  EXPECT_DOUBLE_EQ(again.kops_per_sec, rw.kops_per_sec);
}

TEST(YcsbDriver, RejectsNonsenseConfigs) {
  const SystemConfig cfg = small_config();
  ServingConfig ycfg = ycsb_preset();
  ycfg.clients = 0;
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, ycfg), std::invalid_argument);
  ycfg.clients = 1;
  ycfg.slots = 1000;  // not a power of two
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, ycfg), std::invalid_argument);
  ycfg.slots = 1024;
  ycfg.keys = 1024;  // over half full
  EXPECT_THROW(run_sharded_serving(cfg, Scheme::kSteins, ycfg), std::invalid_argument);
}

TEST(YcsbDriver, ParsesMixNames) {
  EXPECT_EQ(parse_mix("a"), Mix::kA);
  EXPECT_EQ(parse_mix("B"), Mix::kB);
  EXPECT_EQ(parse_mix("f"), Mix::kF);
  EXPECT_EQ(parse_mix("z"), std::nullopt);
  EXPECT_STREQ(mix_name(Mix::kC), "c");
}

}  // namespace
}  // namespace steins::kv
