// One-time-pad generation for counter-mode encryption (CME, paper §II-B).
//
// The OTP for a 64 B data block is AES-128 in CTR mode over (block address,
// counter): four 16-byte input blocks, one per pad lane, encrypted with the
// backend-dispatched 4-lane kernel (Aes128::encrypt4). XORing data with the
// OTP encrypts; XORing again decrypts.
//
// Input-block layout for lane i: E_K(addr[0..6] || i || counter). The lane
// index lives in byte 7 — the most-significant byte of the little-endian
// address word, unused because block addresses are < 2^56 (checked). The
// counter field is untouched, so lanes can never collide for any counter
// value. The key is seed || "OTP_KEY2", domain-separated from the MAC key
// derived from the same seed.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "crypto/aes.hpp"
#include "crypto/backend.hpp"

namespace steins::crypto {

class OtpEngine {
 public:
  /// Key-derivation domain constant: the upper 8 bytes of the AES key.
  static constexpr std::uint64_t kKeyDomain = 0x4f54505f4b455932ULL;  // "OTP_KEY2"

  /// `backend` pins the AES backend (tests/benchmarks); nullopt follows the
  /// process-wide registry.
  explicit OtpEngine(std::uint64_t key_seed,
                     std::optional<CryptoBackend> backend = std::nullopt);

  /// Generate the 64-byte pad for (address, counter). The counter here is
  /// the full encryption counter: for split-counter blocks callers pass
  /// major << 7 | minor composed by the CME layer.
  Block pad(Addr addr, std::uint64_t counter) const;

 private:
  Aes128 aes_;
};

}  // namespace steins::crypto
