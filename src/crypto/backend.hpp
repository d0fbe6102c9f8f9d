// Runtime-dispatched crypto backend registry.
//
// Three backends compute AES-128, the OTP pad cipher, with different
// machinery:
//
//   kRef     byte-wise FIPS-197 AES (verification baseline)
//   kTtable  constexpr T-table AES, four pad lanes interleaved per round
//            (portable fast path)
//   kHw      AES-NI 4-lane pipelined CTR (hardware path, CPUID-gated;
//            models the controller-resident AES engine that secure-NVM
//            proposals assume)
//
// All three are bit-identical by construction: they implement the same
// FIPS-197 function, so switching backends never changes a ciphertext or
// pad — only host wall-clock. MACs are SipHash-2-4 on every backend.
// `crypto_self_check()` cross-verifies every available backend on
// known-answer vectors and random pads; tools call it at startup.
//
// Selection order (first match wins):
//   1. an explicit `set_crypto_backend()` call (the `--crypto-backend` flag)
//   2. the STEINS_CRYPTO_BACKEND environment variable (ref|ttable|hw|auto)
//   3. auto: kHw when CPUID reports AES-NI (and the files were compiled
//      with ISA support), kTtable otherwise
//
// A request for an unavailable backend clamps to the best available one
// (with a stderr note), so scripted runs never die on older hardware.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace steins::crypto {

enum class CryptoBackend { kRef, kTtable, kHw };

/// Short stable name: "ref", "ttable", "hw" (used by CLI flags, env
/// parsing, bench JSON, and CI lane names).
const char* backend_name(CryptoBackend backend);

/// Parse a backend name ("ref"/"ttable"/"hw"); "auto" and unknown strings
/// return nullopt (callers treat "auto" as "clear the override").
std::optional<CryptoBackend> parse_backend(std::string_view name);

/// CPUID feature probe (false on non-x86 builds).
bool cpu_has_aesni();

/// True when the AES-NI translation unit was compiled with ISA support AND
/// the CPU reports the feature.
bool aes_hw_available();

/// The backend the process is currently dispatching to. Resolved lazily
/// from the selection order above; always an *available* backend.
CryptoBackend active_backend();

/// Force a backend (the `--crypto-backend` flag). Requests for kHw on a
/// machine without AES-NI clamp to kTtable with a stderr note. Returns the
/// backend actually activated.
CryptoBackend set_crypto_backend(CryptoBackend backend);

/// Cross-verify every available backend at startup: the FIPS-197 AES
/// vector in both directions, and OTP pad equality between backends.
/// Returns false and fills `detail` on any mismatch.
bool crypto_self_check(std::string* detail = nullptr);

/// RAII backend override for tests and per-backend benchmarks.
class ScopedCryptoBackend {
 public:
  explicit ScopedCryptoBackend(CryptoBackend backend)
      : previous_(active_backend()) {
    set_crypto_backend(backend);
  }
  ~ScopedCryptoBackend() { set_crypto_backend(previous_); }
  ScopedCryptoBackend(const ScopedCryptoBackend&) = delete;
  ScopedCryptoBackend& operator=(const ScopedCryptoBackend&) = delete;

 private:
  CryptoBackend previous_;
};

}  // namespace steins::crypto
