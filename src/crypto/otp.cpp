#include "crypto/otp.hpp"

#include <cstring>

#include "common/status.hpp"

namespace steins::crypto {

namespace {

Aes128::Key otp_key(std::uint64_t seed) {
  Aes128::Key k{};
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &OtpEngine::kKeyDomain, 8);
  return k;
}

}  // namespace

OtpEngine::OtpEngine(std::uint64_t key_seed, std::optional<CryptoBackend> backend)
    : aes_(backend ? Aes128(otp_key(key_seed), *backend) : Aes128(otp_key(key_seed))) {}

Block OtpEngine::pad(Addr addr, std::uint64_t counter) const {
  STEINS_CHECK(addr < (1ULL << 56), "OTP pad: block address exceeds 56 bits");
  // All 4 lane inputs are assembled into the output buffer and encrypted in
  // place with one 4-lane kernel call.
  Block out;
  for (std::uint64_t i = 0; i < 4; ++i) {
    std::uint8_t* in = out.data() + i * Aes128::kBlockBytes;
    std::memcpy(in, &addr, 8);
    in[7] = static_cast<std::uint8_t>(i);
    std::memcpy(in + 8, &counter, 8);
  }
  aes_.encrypt4(out.data());
  return out;
}

}  // namespace steins::crypto
