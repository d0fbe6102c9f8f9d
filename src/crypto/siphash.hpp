// SipHash-2-4 (Aumasson & Bernstein): a fast keyed 64-bit PRF.
//
// The MAC primitive of the crypto pipeline (crypto/mac.hpp): every SIT
// node MAC, data MAC and scheme-specific set MAC is a SipHash-2-4 tag. OTP
// pads come from AES-CTR (crypto/otp.hpp).
//
// The entry points are defined inline: they sit on the per-access MAC path
// of every simulated memory operation, and keeping the round function
// visible to the compiler lets it unroll the fixed-length message schedules
// completely.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

namespace steins::crypto {

namespace detail {

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = std::rotl(v1, 13);
    v1 ^= v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = std::rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = std::rotl(v1, 17);
    v1 ^= v2;
    v2 = std::rotl(v2, 32);
  }

  void compress(std::uint64_t m) {
    v3 ^= m;
    round();
    round();
    v0 ^= m;
  }

  std::uint64_t finalize() {
    v2 ^= 0xff;
    round();
    round();
    round();
    round();
    return v0 ^ v1 ^ v2 ^ v3;
  }
};

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;  // little-endian host assumed (x86-64)
}

}  // namespace detail

class SipHash24 {
 public:
  using Key = std::array<std::uint8_t, 16>;

  explicit SipHash24(const Key& key);

  /// 64-bit keyed hash of `data`. Inline for the same reason as the word
  /// entry points: STAR's set MACs call this per node modification.
  std::uint64_t hash(std::span<const std::uint8_t> data) const {
    detail::SipState s = init();
    const std::size_t n = data.size();
    std::size_t off = 0;
    while (off + 8 <= n) {
      s.compress(detail::load_le64(data.data() + off));
      off += 8;
    }
    std::uint64_t last = static_cast<std::uint64_t>(n & 0xff) << 56;
    for (std::size_t i = 0; off + i < n; ++i) {
      last |= static_cast<std::uint64_t>(data[off + i]) << (8 * i);
    }
    s.compress(last);
    return s.finalize();
  }

  /// A message prefix already run through the compression rounds: the
  /// state plus the byte count absorbed so far (always a multiple of 8).
  struct Prefix {
    detail::SipState state;
    std::uint64_t bytes;
  };

  /// Absorb `data` (whose size must be a multiple of 8) followed by
  /// `nwords` words. finish() completes the message; a caller hashing many
  /// messages that share this prefix pays for it once.
  Prefix absorb(std::span<const std::uint8_t> data, const std::uint64_t* words,
                std::size_t nwords) const {
    Prefix p{init(), 0};
    return absorb_more(p, data, words, nwords);
  }

  /// Append `nwords` trailing words to `p` and finalize — identical to
  /// hash() over the whole concatenated message.
  std::uint64_t finish(Prefix p, const std::uint64_t* words, std::size_t nwords) const {
    p = absorb_more(p, {}, words, nwords);
    p.state.compress((p.bytes & 0xff) << 56);
    return p.state.finalize();
  }

  /// Hash of `data` (whose size must be a multiple of 8) followed by
  /// `nwords` trailing words — identical to hash() over the concatenated
  /// buffer, without assembling one. This is the composite-MAC hot path
  /// (node payload + address + counter, ciphertext + address + counters).
  std::uint64_t hash_concat(std::span<const std::uint8_t> data, const std::uint64_t* words,
                            std::size_t nwords) const {
    return finish(absorb(data, nullptr, 0), words, nwords);
  }

 private:
  static Prefix absorb_more(Prefix p, std::span<const std::uint8_t> data,
                            const std::uint64_t* words, std::size_t nwords) {
    for (std::size_t off = 0; off < data.size(); off += 8) {
      p.state.compress(detail::load_le64(data.data() + off));
    }
    for (std::size_t i = 0; i < nwords; ++i) p.state.compress(words[i]);
    p.bytes += data.size() + 8 * nwords;
    return p;
  }

  detail::SipState init() const {
    return {0x736f6d6570736575ULL ^ k0_, 0x646f72616e646f6dULL ^ k1_,
            0x6c7967656e657261ULL ^ k0_, 0x7465646279746573ULL ^ k1_};
  }

  std::uint64_t k0_, k1_;
};

}  // namespace steins::crypto
