// Counter-mode encryption engine (paper §II-B).
//
// Encrypts/decrypts 64 B data blocks by XOR with an AES-CTR OTP derived from
// (secret key, block address, counter), and computes/verifies the per-block
// SipHash data MAC stored in the ECC-colocated tag sidecar.
#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"
#include "crypto/mac.hpp"
#include "crypto/otp.hpp"

namespace steins {

class CmeEngine {
 public:
  /// Pads follow the process-wide AES backend (crypto/backend.hpp).
  explicit CmeEngine(std::uint64_t key_seed) : otp_(key_seed), mac_(key_seed) {}

  /// Same engine, spelled with the SystemConfig::crypto tag.
  CmeEngine(CryptoPipeline, std::uint64_t key_seed) : CmeEngine(key_seed) {}

  Block encrypt(const Block& plaintext, Addr addr, std::uint64_t counter) const {
    return xor_pad(plaintext, addr, counter);
  }

  Block decrypt(const Block& ciphertext, Addr addr, std::uint64_t counter) const {
    return xor_pad(ciphertext, addr, counter);
  }

  /// Data HMAC over (ciphertext, address, counter, aux). Steins-SC passes
  /// the leaf major counter as `aux` (paper §II-D); others pass 0.
  std::uint64_t data_mac(const Block& ciphertext, Addr addr, std::uint64_t counter,
                         std::uint64_t aux = 0) const {
    return mac_.data_mac(ciphertext, addr, counter, aux);
  }

  const crypto::MacEngine& mac() const { return mac_; }

 private:
  Block xor_pad(const Block& in, Addr addr, std::uint64_t counter) const {
    const Block pad = otp_.pad(addr, counter);
    Block out;
    for (std::size_t i = 0; i < kBlockSize; ++i) out[i] = in[i] ^ pad[i];
    return out;
  }

  crypto::OtpEngine otp_;
  crypto::MacEngine mac_;
};

}  // namespace steins
