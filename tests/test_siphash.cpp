// SipHash-2-4 known-answer tests (reference vectors from the SipHash paper
// / reference implementation) plus MacEngine/OtpEngine behaviour.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"
#include "crypto/siphash.hpp"

namespace steins::crypto {
namespace {

SipHash24 reference_keyed() {
  SipHash24::Key key;
  for (int i = 0; i < 16; ++i) key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  return SipHash24(key);
}

TEST(SipHash24, ReferenceVectors) {
  // vectors_sip64 from the reference implementation: key = 00..0f,
  // input = first N bytes of 00 01 02 ...
  const SipHash24 sip = reference_keyed();
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL,  // len 0
      0x74f839c593dc67fdULL,  // len 1
      0x0d6c8009d9a94f5aULL,  // len 2
      0x85676696d7fb7e2dULL,  // len 3
      0xcf2794e0277187b7ULL,  // len 4
      0x18765564cd99a68dULL,  // len 5
      0xcbc9466e58fee3ceULL,  // len 6
      0xab0200f58b01d137ULL,  // len 7
      0x93f5f5799a932462ULL,  // len 8
  };
  std::vector<std::uint8_t> input;
  for (std::size_t len = 0; len < std::size(expected); ++len) {
    EXPECT_EQ(sip.hash(input), expected[len]) << "length " << len;
    input.push_back(static_cast<std::uint8_t>(len));
  }
}

TEST(SipHash24, HashConcatMatchesByteHash) {
  // The composite-MAC entry point must equal hash() over the concatenated
  // message, for an empty and an 8-aligned prefix.
  const SipHash24 sip = reference_keyed();
  const std::uint64_t words[3] = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 7};
  std::uint8_t buf[56 + sizeof(words)];
  for (std::size_t i = 0; i < 56; ++i) buf[i] = static_cast<std::uint8_t>(i * 7);
  std::memcpy(buf + 56, words, sizeof(words));
  EXPECT_EQ(sip.hash_concat({buf, 56}, words, 3), sip.hash({buf, sizeof(buf)}));
  EXPECT_EQ(sip.hash_concat({}, words, 2), sip.hash({buf + 56, 16}));
}

TEST(SipHash24, AbsorbFinishMatchesHashConcat) {
  // Any split of the trailing words between absorb() and finish() hashes
  // the same message as hash_concat(), and one prefix finishes many times.
  const SipHash24 sip = reference_keyed();
  SplitMix64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint8_t data[64];
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng.next());
    const std::size_t n = 8 * (rng.next() % 9);
    std::uint64_t words[4];
    for (std::uint64_t& w : words) w = rng.next();
    const std::size_t nwords = rng.next() % 5;
    const std::size_t split = rng.next() % (nwords + 1);
    const SipHash24::Prefix prefix = sip.absorb({data, n}, words, split);
    EXPECT_EQ(sip.finish(prefix, words + split, nwords - split),
              sip.hash_concat({data, n}, words, nwords));
    EXPECT_EQ(sip.finish(prefix, words + split, nwords - split),
              sip.finish(prefix, words + split, nwords - split));
  }
}

TEST(MacEngine, DataMacPrefixFinishMatchesDataMac) {
  // The recovery counter search: one (ciphertext, address) prefix, then
  // every candidate counter only finishes the MAC.
  MacEngine mac(7);
  SplitMix64 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    Block ct;
    for (std::uint8_t& b : ct) b = static_cast<std::uint8_t>(rng.next());
    const Addr addr = (rng.next() % (1u << 24)) * kBlockSize;
    const auto prefix = mac.data_mac_prefix(ct, addr);
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t ctr = rng.next(), aux = (k % 2 == 0) ? 0 : rng.next();
      const std::uint64_t words[3] = {addr, ctr, aux};
      std::uint8_t msg[kBlockSize + sizeof(words)];
      std::memcpy(msg, ct.data(), kBlockSize);
      std::memcpy(msg + kBlockSize, words, sizeof(words));
      EXPECT_EQ(mac.data_mac_finish(prefix, ctr, aux), mac.data_mac(ct, addr, ctr, aux));
      EXPECT_EQ(mac.data_mac_finish(prefix, ctr, aux), mac.mac64(msg));
    }
  }
}

TEST(MacEngine, KeyedAndDeterministic) {
  MacEngine m1(42);
  MacEngine m1b(42);
  MacEngine m2(43);
  const std::uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(m1.mac64(data), m1b.mac64(data));
  EXPECT_NE(m1.mac64(data), m2.mac64(data));
}

TEST(MacEngine, NodeMacBindsAddressAndParentCounter) {
  MacEngine mac(7);
  const std::uint8_t payload[56] = {};
  EXPECT_NE(mac.node_mac(payload, 0x1000, 5), mac.node_mac(payload, 0x1040, 5));
  EXPECT_NE(mac.node_mac(payload, 0x1000, 5), mac.node_mac(payload, 0x1000, 6));
}

TEST(MacEngine, NodeMacStreamingMatchesStagedMessage) {
  // The 8-aligned fast path and the staged fallback hash the same bytes.
  MacEngine mac(7);
  std::uint8_t payload[56];
  for (std::size_t i = 0; i < sizeof(payload); ++i) payload[i] = static_cast<std::uint8_t>(i);
  std::uint8_t msg[72];
  std::memcpy(msg, payload, 56);
  const std::uint64_t addr = 0x1000, parent = 9;
  std::memcpy(msg + 56, &addr, 8);
  std::memcpy(msg + 64, &parent, 8);
  EXPECT_EQ(mac.node_mac(payload, addr, parent), mac.mac64(msg));
}

TEST(MacEngine, DataMacMatchesStagedMessage) {
  // data_mac is the MAC of ciphertext || address || counter || aux.
  MacEngine mac(7);
  Block ct;
  for (std::size_t i = 0; i < ct.size(); ++i) ct[i] = static_cast<std::uint8_t>(i * 5);
  const std::uint64_t words[3] = {0x2000, 17, 3};
  std::uint8_t msg[kBlockSize + sizeof(words)];
  std::memcpy(msg, ct.data(), kBlockSize);
  std::memcpy(msg + kBlockSize, words, sizeof(words));
  EXPECT_EQ(mac.data_mac(ct, words[0], words[1], words[2]), mac.mac64(msg));
}

TEST(OtpEngine, PadsAreUniquePerAddressAndCounter) {
  OtpEngine otp(99);
  const Block p1 = otp.pad(0x40, 1);
  const Block p2 = otp.pad(0x80, 1);
  const Block p3 = otp.pad(0x40, 2);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, p3);
  EXPECT_EQ(p1, otp.pad(0x40, 1));  // deterministic
}

TEST(OtpEngine, XorRoundTrip) {
  OtpEngine otp(123);
  Block data;
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  const Block pad = otp.pad(0x1234 * kBlockSize, 77);
  Block ct;
  for (std::size_t i = 0; i < data.size(); ++i) ct[i] = data[i] ^ pad[i];
  Block pt;
  for (std::size_t i = 0; i < data.size(); ++i) pt[i] = ct[i] ^ pad[i];
  EXPECT_EQ(pt, data);
}

}  // namespace
}  // namespace steins::crypto
