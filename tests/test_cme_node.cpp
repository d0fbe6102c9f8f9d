// CME engine and SIT node codec.
#include <gtest/gtest.h>

#include <string>

#include "crypto/backend.hpp"
#include "secure/cme.hpp"
#include "sit/node.hpp"

namespace steins {
namespace {

Block pattern(std::uint8_t base) {
  Block b;
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(base + i);
  return b;
}

// The pad comes from the registry-dispatched AES kernel, so the
// encryption properties are checked under every forced backend.
class CmeBackends : public ::testing::TestWithParam<crypto::CryptoBackend> {};

TEST_P(CmeBackends, EncryptDecryptRoundTrip) {
  const crypto::ScopedCryptoBackend scoped(GetParam());
  CmeEngine cme(1234);
  const Block pt = pattern(3);
  const Block ct = cme.encrypt(pt, 0x1000, 42);
  EXPECT_NE(ct, pt);  // ciphertext differs
  EXPECT_EQ(cme.decrypt(ct, 0x1000, 42), pt);
}

TEST_P(CmeBackends, CounterChangesCiphertext) {
  const crypto::ScopedCryptoBackend scoped(GetParam());
  CmeEngine cme(1234);
  const Block pt = pattern(5);
  EXPECT_NE(cme.encrypt(pt, 0x1000, 1), cme.encrypt(pt, 0x1000, 2));
  EXPECT_NE(cme.encrypt(pt, 0x1000, 1), cme.encrypt(pt, 0x1040, 1));
}

INSTANTIATE_TEST_SUITE_P(CmeEngine, CmeBackends,
                         ::testing::Values(crypto::CryptoBackend::kRef,
                                           crypto::CryptoBackend::kTtable,
                                           crypto::CryptoBackend::kHw),
                         [](const ::testing::TestParamInfo<crypto::CryptoBackend>& info) {
                           return std::string(crypto::backend_name(info.param));
                         });

TEST(CmeEngine, StaleCounterDoesNotDecrypt) {
  // A replayed counter yields a different pad, so decryption under the
  // wrong counter returns garbage rather than the plaintext.
  CmeEngine cme(1234);
  const Block pt = pattern(7);
  const Block ct = cme.encrypt(pt, 0x1000, 42);
  EXPECT_NE(cme.decrypt(ct, 0x1000, 41), pt);
  EXPECT_NE(cme.decrypt(ct, 0x1040, 42), pt);
}

TEST(CmeEngine, KeySeedChangesCiphertextAndMac) {
  const CmeEngine a(1234);
  const CmeEngine b(1235);
  const Block pt = pattern(13);
  EXPECT_NE(a.encrypt(pt, 0x40, 3), b.encrypt(pt, 0x40, 3));
  EXPECT_NE(a.data_mac(pt, 0x40, 3), b.data_mac(pt, 0x40, 3));
}

TEST(CmeEngine, DataMacBindsAllInputs) {
  CmeEngine cme(1234);
  const Block ct = pattern(9);
  const std::uint64_t base = cme.data_mac(ct, 0x40, 7, 0);
  EXPECT_NE(base, cme.data_mac(ct, 0x80, 7, 0));   // address
  EXPECT_NE(base, cme.data_mac(ct, 0x40, 8, 0));   // counter
  EXPECT_NE(base, cme.data_mac(ct, 0x40, 7, 1));   // aux (leaf major)
  Block ct2 = ct;
  ct2[17] ^= 1;
  EXPECT_NE(base, cme.data_mac(ct2, 0x40, 7, 0));  // ciphertext
}

TEST(CmeEngine, ConfigTagBuildsTheSameEngine) {
  const CmeEngine tagged(SystemConfig{}.crypto, 1234);
  const CmeEngine plain(1234);
  const Block pt = pattern(11);
  EXPECT_EQ(tagged.encrypt(pt, 0x40, 3), plain.encrypt(pt, 0x40, 3));
  EXPECT_EQ(tagged.data_mac(pt, 0x40, 3), plain.data_mac(pt, 0x40, 3));
}

TEST(SitNode, GeneralBlockRoundTripsThroughImage) {
  SitNode n;
  n.id = {2, 77};
  for (std::size_t i = 0; i < kTreeArity; ++i) {
    n.gc.counters[i] = (0x123456789abcdULL * (i + 1)) & kCounter56Mask;
  }
  const Block img = n.to_block(0xdeadbeefcafef00dULL);
  std::uint64_t mac = 0;
  const SitNode back = SitNode::from_block(n.id, false, img, &mac);
  EXPECT_TRUE(back.counters_equal(n));
  EXPECT_EQ(mac, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(node_image_hmac(img), 0xdeadbeefcafef00dULL);
}

TEST(SitNode, SplitBlockRoundTripsThroughImage) {
  SitNode n;
  n.id = {0, 3};
  n.split = true;
  n.sc.major = 99;
  for (std::size_t i = 0; i < kSplitArity; ++i) {
    n.sc.minors[i] = static_cast<std::uint8_t>((i * 5) % kMinorMax);
  }
  const Block img = n.to_block(42);
  const SitNode back = SitNode::from_block(n.id, true, img);
  EXPECT_TRUE(back.counters_equal(n));
  EXPECT_EQ(back.parent_value(), n.parent_value());
}

TEST(SitNode, ParentValueDispatchesOnVariant) {
  SitNode g;
  g.gc.counters = {1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(g.parent_value(), 8u);
  SitNode s;
  s.split = true;
  s.sc.major = 1;
  EXPECT_EQ(s.parent_value(), 64u);
}

}  // namespace
}  // namespace steins
