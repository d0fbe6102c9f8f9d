#include "crypto/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/aes_ni.hpp"
#include "crypto/otp.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace steins::crypto {

namespace {

// -1 = not yet resolved; otherwise a CryptoBackend value. Resolution is
// deterministic (env + CPUID), so a racy first call is benign.
std::atomic<int> g_active{-1};

struct CpuFeatures {
  bool aesni = false;
  bool ssse3 = false;
};

CpuFeatures probe_cpu() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.aesni = (ecx & (1u << 25)) != 0;
    f.ssse3 = (ecx & (1u << 9)) != 0;
  }
#endif
  return f;
}

const CpuFeatures& cpu() {
  static const CpuFeatures f = probe_cpu();
  return f;
}

CryptoBackend clamp_to_available(CryptoBackend backend, const char* origin) {
  if (backend == CryptoBackend::kHw && !aes_hw_available()) {
    std::fprintf(stderr,
                 "steins: %s requested the hw crypto backend but AES-NI is "
                 "unavailable; using ttable\n",
                 origin);
    return CryptoBackend::kTtable;
  }
  return backend;
}

CryptoBackend resolve_default() {
  if (const char* env = std::getenv("STEINS_CRYPTO_BACKEND")) {
    if (const auto parsed = parse_backend(env)) {
      return clamp_to_available(*parsed, "STEINS_CRYPTO_BACKEND");
    }
    if (std::strcmp(env, "auto") != 0 && env[0] != '\0') {
      std::fprintf(stderr,
                   "steins: unknown STEINS_CRYPTO_BACKEND '%s' "
                   "(expected ref|ttable|hw|auto); using auto\n",
                   env);
    }
  }
  return aes_hw_available() ? CryptoBackend::kHw : CryptoBackend::kTtable;
}

void publish(CryptoBackend backend) {
  g_active.store(static_cast<int>(backend), std::memory_order_release);
}

}  // namespace

const char* backend_name(CryptoBackend backend) {
  switch (backend) {
    case CryptoBackend::kRef: return "ref";
    case CryptoBackend::kTtable: return "ttable";
    case CryptoBackend::kHw: return "hw";
  }
  return "?";
}

std::optional<CryptoBackend> parse_backend(std::string_view name) {
  if (name == "ref") return CryptoBackend::kRef;
  if (name == "ttable") return CryptoBackend::kTtable;
  if (name == "hw") return CryptoBackend::kHw;
  return std::nullopt;
}

bool cpu_has_aesni() { return cpu().aesni && cpu().ssse3; }

bool aes_hw_available() { return aesni::compiled() && cpu_has_aesni(); }

CryptoBackend active_backend() {
  const int v = g_active.load(std::memory_order_acquire);
  if (v >= 0) return static_cast<CryptoBackend>(v);
  const CryptoBackend resolved = resolve_default();
  publish(resolved);
  return resolved;
}

CryptoBackend set_crypto_backend(CryptoBackend backend) {
  const CryptoBackend actual = clamp_to_available(backend, "--crypto-backend");
  publish(actual);
  return actual;
}

bool crypto_self_check(std::string* detail) {
  const auto fail = [&](const std::string& what) {
    if (detail != nullptr) *detail = what;
    return false;
  };

  std::vector<CryptoBackend> backends{CryptoBackend::kRef, CryptoBackend::kTtable};
  if (aes_hw_available()) backends.push_back(CryptoBackend::kHw);

  // FIPS-197 Appendix C.1 known answer, per backend, both directions.
  Aes128::Key key{};
  Aes128::BlockBytes pt{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < pt.size(); ++i) pt[i] = static_cast<std::uint8_t>(i * 0x11);
  constexpr Aes128::BlockBytes expect{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                                      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  for (const CryptoBackend b : backends) {
    const Aes128 aes(key, b);
    if (aes.encrypt(pt) != expect) {
      return fail(std::string("AES FIPS-197 encrypt mismatch on backend ") +
                  backend_name(b));
    }
    if (aes.decrypt(expect) != pt) {
      return fail(std::string("AES FIPS-197 decrypt mismatch on backend ") +
                  backend_name(b));
    }
  }

  // Cross-backend pad equality on structured inputs, counters with their
  // top bits set included.
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const Addr addr = (trial * 0x40c0ULL) & ~0x3fULL;
    const std::uint64_t ctr = trial * 0x123456789ULL + (trial << 60);
    const Block expect_pad = OtpEngine(7, backends[0]).pad(addr, ctr);
    for (std::size_t i = 1; i < backends.size(); ++i) {
      if (OtpEngine(7, backends[i]).pad(addr, ctr) != expect_pad) {
        return fail(std::string("OTP pad divergence between backends ") +
                    backend_name(backends[0]) + " and " + backend_name(backends[i]));
      }
    }
  }

  return true;
}

}  // namespace steins::crypto
