// Crypto backend registry (parse/select/override), the startup self-check,
// the OTP pad layout (lanes never alias, 56-bit address guard), MAC/pad key
// separation, and cross-backend equality of OTP pads.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"
#include "crypto/siphash.hpp"

namespace steins::crypto {
namespace {

TEST(CryptoBackend, NamesRoundTripThroughParse) {
  for (CryptoBackend b : {CryptoBackend::kRef, CryptoBackend::kTtable, CryptoBackend::kHw}) {
    const auto parsed = parse_backend(backend_name(b));
    ASSERT_TRUE(parsed.has_value()) << backend_name(b);
    EXPECT_EQ(*parsed, b);
  }
}

TEST(CryptoBackend, ParseRejectsAutoAndGarbage) {
  EXPECT_FALSE(parse_backend("auto").has_value());
  EXPECT_FALSE(parse_backend("").has_value());
  EXPECT_FALSE(parse_backend("aesni").has_value());
  EXPECT_FALSE(parse_backend("HW").has_value());
}

TEST(CryptoBackend, HwAvailabilityImpliesCpuFeature) {
  // aes_hw_available() additionally requires that the translation unit was
  // compiled with ISA support, so it can only be a subset of the CPUID bit.
  if (aes_hw_available()) {
    EXPECT_TRUE(cpu_has_aesni());
  }
}

TEST(CryptoBackend, SetAndScopedOverrideRestore) {
  const CryptoBackend before = active_backend();
  {
    ScopedCryptoBackend scoped(CryptoBackend::kRef);
    EXPECT_EQ(active_backend(), CryptoBackend::kRef);
    {
      ScopedCryptoBackend nested(CryptoBackend::kTtable);
      EXPECT_EQ(active_backend(), CryptoBackend::kTtable);
    }
    EXPECT_EQ(active_backend(), CryptoBackend::kRef);
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(CryptoBackend, UnavailableHwClampsToTtable) {
  if (aes_hw_available()) {
    EXPECT_EQ(set_crypto_backend(CryptoBackend::kHw), CryptoBackend::kHw);
  } else {
    EXPECT_EQ(set_crypto_backend(CryptoBackend::kHw), CryptoBackend::kTtable);
  }
  set_crypto_backend(CryptoBackend::kTtable);  // leave a deterministic state
}

TEST(CryptoBackend, SelfCheckPasses) {
  std::string detail;
  EXPECT_TRUE(crypto_self_check(&detail)) << detail;
}

// ---------------------------------------------------------------------------
// OTP pad layout and key separation.

Aes128::Key otp_key(std::uint64_t seed) {
  // Mirror OtpEngine's key derivation: seed || domain constant, little-endian.
  Aes128::Key k{};
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &OtpEngine::kKeyDomain, 8);
  return k;
}

std::array<std::uint8_t, 16> pad_chunk(const Block& pad, unsigned lane) {
  std::array<std::uint8_t, 16> c;
  std::memcpy(c.data(), pad.data() + lane * 16, 16);
  return c;
}

TEST(OtpPad, LanesNeverAlias) {
  // The lane index lives outside the counter field, so (counter, lane i)
  // and (counter ^ (i << 60), lane 0) must encrypt different input blocks
  // — a layout that XORed the lane into the counter's top bits would not.
  OtpEngine otp(99);
  const Addr addr = 0x1234'5678ULL;
  const std::uint64_t counter = 42;
  for (std::uint64_t i = 1; i < 4; ++i) {
    const Block a = otp.pad(addr, counter);
    const Block b = otp.pad(addr, counter ^ (i << 60));
    EXPECT_NE(pad_chunk(a, i), pad_chunk(b, 0)) << "lane " << i;
  }
}

// The layout is checked on each backend's 4-lane kernel against the
// byte-wise reference cipher.
class OtpPadLayout : public ::testing::TestWithParam<CryptoBackend> {};

TEST_P(OtpPadLayout, PutsLaneInAddressTopByte) {
  const std::uint64_t seed = 7;
  const Addr addr = 0xabcd00ULL;
  const std::uint64_t counter = 0xffff'ffff'ffff'fff0ULL;  // all top bits set
  OtpEngine otp(seed, GetParam());
  const Block pad = otp.pad(addr, counter);

  Aes128 aes(otp_key(seed), CryptoBackend::kRef);
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::uint8_t in[16];
    std::memcpy(in, &addr, 8);
    in[7] = static_cast<std::uint8_t>(i);
    std::memcpy(in + 8, &counter, 8);
    aes.encrypt_block_ref(in);
    EXPECT_EQ(0, std::memcmp(in, pad.data() + i * 16, 16)) << "lane " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(OtpPad, OtpPadLayout,
                         ::testing::Values(CryptoBackend::kRef, CryptoBackend::kTtable,
                                           CryptoBackend::kHw),
                         [](const ::testing::TestParamInfo<CryptoBackend>& info) {
                           return std::string(backend_name(info.param));
                         });

TEST(OtpPad, RejectsAddressesAbove56Bits) {
  OtpEngine otp(7);
  EXPECT_NO_THROW(otp.pad((1ULL << 56) - 64, 1));
  EXPECT_THROW(otp.pad(1ULL << 56, 1), StatusError);
}

TEST(OtpPad, MacAndPadKeysAreDomainSeparated) {
  // One seed feeds both engines; the domain constants keep their keys apart.
  EXPECT_NE(OtpEngine::kKeyDomain, MacEngine::kKeyDomain);
  const std::uint64_t seed = 7;
  SipHash24::Key pad_keyed{};
  std::memcpy(pad_keyed.data(), &seed, 8);
  std::memcpy(pad_keyed.data() + 8, &OtpEngine::kKeyDomain, 8);
  const std::uint8_t msg[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_NE(MacEngine(seed).mac64(msg), SipHash24(pad_keyed).hash(msg));
}

// ---------------------------------------------------------------------------
// Pads across backends.

TEST(CryptoBackend, OtpPadsAgreeAcrossBackends) {
  Xoshiro256 rng(0x5e1ec7ULL);
  std::vector<CryptoBackend> backends{CryptoBackend::kTtable};
  if (aes_hw_available()) backends.push_back(CryptoBackend::kHw);

  OtpEngine otp_ref(11, CryptoBackend::kRef);
  for (int trial = 0; trial < 50; ++trial) {
    const Addr addr = (rng.next() % (1ULL << 40)) & ~63ULL;
    const std::uint64_t counter = rng.next();
    const Block expect_pad = otp_ref.pad(addr, counter);
    for (CryptoBackend b : backends) {
      OtpEngine otp(11, b);
      ASSERT_EQ(otp.pad(addr, counter), expect_pad) << backend_name(b) << " trial " << trial;
    }
  }
}

TEST(CryptoBackend, RegistryBackendMatchesPinnedPads) {
  // An engine that follows the registry produces the pinned engine's pads
  // under every forced backend: the simulator's content never depends on
  // which backend is active.
  const OtpEngine pinned(11, CryptoBackend::kRef);
  const OtpEngine follows(11);
  for (CryptoBackend b : {CryptoBackend::kRef, CryptoBackend::kTtable, CryptoBackend::kHw}) {
    ScopedCryptoBackend scoped(b);
    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_EQ(follows.pad(i * 64, i << 59), pinned.pad(i * 64, i << 59)) << backend_name(b);
    }
  }
}

}  // namespace
}  // namespace steins::crypto
