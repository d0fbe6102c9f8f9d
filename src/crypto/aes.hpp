// AES-128 block cipher (FIPS-197), implemented from scratch.
//
// Used by the counter-mode encryption engine (CME) to derive one-time pads
// from (address, counter) tuples. Three backends share one key schedule
// (see crypto/backend.hpp for the dispatch registry):
//
//  - `hw` (default where CPUID reports AES-NI): hardware AES rounds; the
//    4-block CTR kernel pipelines the rounds across all four lanes
//    (crypto/aes_ni.cpp), modeling the controller-resident AES engine that
//    secure-NVM designs assume;
//  - `ttable`: 4 constexpr-generated 1 KB lookup tables fold
//    SubBytes+ShiftRows+MixColumns into 16 table lookups + XORs per round
//    (Rijndael's 32-bit software formulation) — the portable fast path; the
//    4-block CTR kernel runs each round across all four lanes;
//  - `ref`: the byte-wise FIPS-197 reference path (`encrypt_block_ref` /
//    `decrypt_block_ref`), kept for verification; tests cross-check every
//    backend pair on the NIST vectors and randomized blocks. Define
//    STEINS_AES_REFERENCE at compile time to force it everywhere.
//
// All backends are bit-identical; the simulator models AES latency
// separately (SecureConfig::aes_latency_cycles), so the backend only
// affects host wall-clock.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/backend.hpp"

namespace steins::crypto {

class Aes128 {
 public:
  static constexpr std::size_t kBlockBytes = 16;
  static constexpr std::size_t kKeyBytes = 16;
  static constexpr unsigned kRounds = 10;

  using Key = std::array<std::uint8_t, kKeyBytes>;
  using BlockBytes = std::array<std::uint8_t, kBlockBytes>;

  /// Follows the process-wide active backend (crypto/backend.hpp) on every
  /// call, so a `--crypto-backend` override reaches existing engines too.
  explicit Aes128(const Key& key) { expand_key(key); }

  /// Pinned to one backend regardless of the registry (tests and
  /// per-backend benchmarks). Requests for an unavailable hw backend fall
  /// back to ttable.
  Aes128(const Key& key, CryptoBackend backend) : backend_(backend) {
    if (backend_ == CryptoBackend::kHw && !aes_hw_available()) {
      backend_ = CryptoBackend::kTtable;
    }
    expand_key(key);
  }

  /// The backend calls dispatch to right now.
  CryptoBackend backend() const { return backend_ ? *backend_ : active_backend(); }

  /// Encrypt one 16-byte block in place.
  void encrypt_block(std::uint8_t* block) const;

  /// Encrypt 4 contiguous 16-byte blocks in place, dispatching on the
  /// backend once per call. The hw backend runs the 4-lane pipelined AES-NI
  /// kernel (one `aesenc` per lane per round, interleaved to hide
  /// instruction latency); ttable interleaves the four lanes per round the
  /// same way; ref loops over the byte-wise path. This is the OTP CTR hot
  /// path.
  void encrypt4(std::uint8_t* blocks) const;

  /// Decrypt one 16-byte block in place.
  void decrypt_block(std::uint8_t* block) const;

  /// Byte-wise FIPS-197 reference implementations (verification only).
  void encrypt_block_ref(std::uint8_t* block) const;
  void decrypt_block_ref(std::uint8_t* block) const;

  BlockBytes encrypt(const BlockBytes& in) const {
    BlockBytes out = in;
    encrypt_block(out.data());
    return out;
  }

  BlockBytes decrypt(const BlockBytes& in) const {
    BlockBytes out = in;
    decrypt_block(out.data());
    return out;
  }

  /// One-shot self check: T-table and reference paths agree on the FIPS-197
  /// known-answer vectors. Cheap enough to call from main() or tests.
  /// (crypto_self_check() in backend.hpp extends this across all backends.)
  static bool self_check();

 private:
  void expand_key(const Key& key);

  void encrypt_block_ttable(std::uint8_t* block) const;
  void encrypt4_ttable(std::uint8_t* blocks) const;
  void decrypt_block_ttable(std::uint8_t* block) const;

  // nullopt = follow the process-wide registry at call time.
  std::optional<CryptoBackend> backend_;

  // Round keys as bytes: (kRounds + 1) x 16, used by the reference path.
  std::array<std::uint8_t, (kRounds + 1) * kBlockBytes> round_keys_{};
  // The same schedule as big-endian 32-bit column words for the T-table
  // path, plus the equivalent-inverse-cipher schedule (InvMixColumns
  // applied to the middle rounds) for T-table decryption.
  std::array<std::uint32_t, (kRounds + 1) * 4> enc_rk_{};
  std::array<std::uint32_t, (kRounds + 1) * 4> dec_rk_{};
};

}  // namespace steins::crypto
