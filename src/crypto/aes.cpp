#include "crypto/aes.hpp"

#include <cstring>

#include "crypto/aes_ni.hpp"

namespace steins::crypto {

namespace {

// FIPS-197 S-box and inverse S-box.
constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16};

constexpr std::uint8_t kInvSbox[256] = {
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7,
    0xfb, 0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde,
    0xe9, 0xcb, 0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42,
    0xfa, 0xc3, 0x4e, 0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49,
    0x6d, 0x8b, 0xd1, 0x25, 0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c,
    0xcc, 0x5d, 0x65, 0xb6, 0x92, 0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15,
    0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84, 0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7,
    0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06, 0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02,
    0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b, 0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc,
    0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73, 0x96, 0xac, 0x74, 0x22, 0xe7, 0xad,
    0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e, 0x47, 0xf1, 0x1a, 0x71, 0x1d,
    0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b, 0xfc, 0x56, 0x3e, 0x4b,
    0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4, 0x1f, 0xdd, 0xa8,
    0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f, 0x60, 0x51,
    0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef, 0xa0,
    0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c,
    0x7d};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

// GF(2^8) multiply by x (i.e. {02}).
inline constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

inline constexpr std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return p;
}

// T-tables for the 32-bit software formulation (Rijndael proposal §5.2.1).
// Each encryption table maps one state byte to its column contribution
// after SubBytes+ShiftRows+MixColumns; Te_r is Te0 rotated right by 8*r
// bits, matching the byte's row. Td tables are the inverse-cipher
// equivalents over the inverse S-box and the InvMixColumns coefficients.
// Generated at compile time from the S-boxes — nothing to keep in sync.
struct AesTables {
  std::uint32_t Te[4][256];
  std::uint32_t Td[4][256];
};

constexpr std::uint32_t rotr32(std::uint32_t v, int r) {
  return r == 0 ? v : (v >> r) | (v << (32 - r));
}

constexpr AesTables make_tables() {
  AesTables t{};
  for (unsigned i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    // MixColumns column for an input byte in row 0: (2s, s, s, 3s).
    const std::uint32_t e = (static_cast<std::uint32_t>(gmul(s, 2)) << 24) |
                            (static_cast<std::uint32_t>(s) << 16) |
                            (static_cast<std::uint32_t>(s) << 8) |
                            static_cast<std::uint32_t>(gmul(s, 3));
    const std::uint8_t is = kInvSbox[i];
    // InvMixColumns column for row 0: (0e, 09, 0d, 0b) * is.
    const std::uint32_t d = (static_cast<std::uint32_t>(gmul(is, 0x0e)) << 24) |
                            (static_cast<std::uint32_t>(gmul(is, 0x09)) << 16) |
                            (static_cast<std::uint32_t>(gmul(is, 0x0d)) << 8) |
                            static_cast<std::uint32_t>(gmul(is, 0x0b));
    for (int r = 0; r < 4; ++r) {
      t.Te[r][i] = rotr32(e, 8 * r);
      t.Td[r][i] = rotr32(d, 8 * r);
    }
  }
  return t;
}

constexpr AesTables kT = make_tables();

// Column c of the state as a big-endian word (row 0 in the MSB).
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// InvMixColumns on one round-key word (equivalent inverse cipher key prep).
inline std::uint32_t inv_mix_word(std::uint32_t w) {
  const std::uint8_t b0 = static_cast<std::uint8_t>(w >> 24);
  const std::uint8_t b1 = static_cast<std::uint8_t>(w >> 16);
  const std::uint8_t b2 = static_cast<std::uint8_t>(w >> 8);
  const std::uint8_t b3 = static_cast<std::uint8_t>(w);
  const auto mix = [](std::uint8_t a0, std::uint8_t a1, std::uint8_t a2, std::uint8_t a3) {
    return static_cast<std::uint8_t>(gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^
                                     gmul(a3, 0x09));
  };
  return (static_cast<std::uint32_t>(mix(b0, b1, b2, b3)) << 24) |
         (static_cast<std::uint32_t>(mix(b1, b2, b3, b0)) << 16) |
         (static_cast<std::uint32_t>(mix(b2, b3, b0, b1)) << 8) |
         static_cast<std::uint32_t>(mix(b3, b0, b1, b2));
}

// A block's state as four big-endian column words (row 0 in the MSB). The
// helpers below are forced inline so each lane's state stays in registers
// (at -O2 GCC otherwise keeps them out of line, costing ~30% per block).
struct Columns {
  std::uint32_t c0, c1, c2, c3;
};

[[gnu::always_inline]] inline Columns load_columns(const std::uint8_t* p,
                                                   const std::uint32_t* rk) {
  return {load_be32(p) ^ rk[0], load_be32(p + 4) ^ rk[1], load_be32(p + 8) ^ rk[2],
          load_be32(p + 12) ^ rk[3]};
}

// One full T-table round: SubBytes+ShiftRows+MixColumns+AddRoundKey.
// ShiftRows left-rotates row r by r columns, so output column c pulls row r
// from column (c + r) mod 4.
[[gnu::always_inline]] inline Columns ttable_round(const Columns& s,
                                                   const std::uint32_t* rk) {
  const auto col = [](std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d,
                      std::uint32_t k) {
    return kT.Te[0][a >> 24] ^ kT.Te[1][(b >> 16) & 0xff] ^ kT.Te[2][(c >> 8) & 0xff] ^
           kT.Te[3][d & 0xff] ^ k;
  };
  return {col(s.c0, s.c1, s.c2, s.c3, rk[0]), col(s.c1, s.c2, s.c3, s.c0, rk[1]),
          col(s.c2, s.c3, s.c0, s.c1, rk[2]), col(s.c3, s.c0, s.c1, s.c2, rk[3])};
}

// Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
[[gnu::always_inline]] inline void store_last_round(const Columns& s, const std::uint32_t* rk,
                                                    std::uint8_t* p) {
  const auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kSbox[d & 0xff]);
  };
  store_be32(p, last(s.c0, s.c1, s.c2, s.c3) ^ rk[0]);
  store_be32(p + 4, last(s.c1, s.c2, s.c3, s.c0) ^ rk[1]);
  store_be32(p + 8, last(s.c2, s.c3, s.c0, s.c1) ^ rk[2]);
  store_be32(p + 12, last(s.c3, s.c0, s.c1, s.c2) ^ rk[3]);
}

}  // namespace

void Aes128::expand_key(const Key& key) {
  std::memcpy(round_keys_.data(), key.data(), kKeyBytes);
  for (unsigned i = 4; i < 4 * (kRounds + 1); ++i) {
    std::uint8_t t[4];
    std::memcpy(t, &round_keys_[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(kSbox[t[1]] ^ kRcon[i / 4 - 1]);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
    }
    for (int j = 0; j < 4; ++j) {
      round_keys_[i * 4 + j] = round_keys_[(i - 4) * 4 + j] ^ t[j];
    }
  }

  // Word-form schedules for the T-table paths. Encryption words are the
  // byte schedule read big-endian per column; the decryption schedule is
  // the equivalent inverse cipher's: round order reversed, InvMixColumns
  // applied to every round key except the first and last.
  for (unsigned i = 0; i < 4 * (kRounds + 1); ++i) {
    enc_rk_[i] = load_be32(&round_keys_[i * 4]);
  }
  for (unsigned round = 0; round <= kRounds; ++round) {
    for (unsigned c = 0; c < 4; ++c) {
      std::uint32_t w = enc_rk_[(kRounds - round) * 4 + c];
      if (round != 0 && round != kRounds) w = inv_mix_word(w);
      dec_rk_[round * 4 + c] = w;
    }
  }
}

void Aes128::encrypt_block(std::uint8_t* s) const {
#ifdef STEINS_AES_REFERENCE
  encrypt_block_ref(s);
#else
  switch (backend()) {
    case CryptoBackend::kHw:
      aesni::encrypt_block(round_keys_.data(), s);
      return;
    case CryptoBackend::kRef:
      encrypt_block_ref(s);
      return;
    case CryptoBackend::kTtable:
      encrypt_block_ttable(s);
      return;
  }
#endif
}

void Aes128::encrypt4(std::uint8_t* blocks) const {
#ifdef STEINS_AES_REFERENCE
  for (int i = 0; i < 4; ++i) encrypt_block_ref(blocks + i * kBlockBytes);
#else
  switch (backend()) {
    case CryptoBackend::kHw:
      aesni::encrypt4(round_keys_.data(), blocks);
      return;
    case CryptoBackend::kRef:
      for (int i = 0; i < 4; ++i) encrypt_block_ref(blocks + i * kBlockBytes);
      return;
    case CryptoBackend::kTtable:
      encrypt4_ttable(blocks);
      return;
  }
#endif
}

void Aes128::encrypt_block_ttable(std::uint8_t* p) const {
  const std::uint32_t* rk = enc_rk_.data();
  Columns s = load_columns(p, rk);
  for (unsigned round = 1; round < kRounds; ++round) s = ttable_round(s, rk += 4);
  store_last_round(s, rk + 4, p);
}

void Aes128::encrypt4_ttable(std::uint8_t* p) const {
  // Each round runs across all four lanes before the next one starts, so
  // the lanes' independent table loads overlap instead of forming one
  // serial chain per block.
  const std::uint32_t* rk = enc_rk_.data();
  Columns a = load_columns(p, rk);
  Columns b = load_columns(p + 16, rk);
  Columns c = load_columns(p + 32, rk);
  Columns d = load_columns(p + 48, rk);
  for (unsigned round = 1; round < kRounds; ++round) {
    rk += 4;
    a = ttable_round(a, rk);
    b = ttable_round(b, rk);
    c = ttable_round(c, rk);
    d = ttable_round(d, rk);
  }
  rk += 4;
  store_last_round(a, rk, p);
  store_last_round(b, rk, p + 16);
  store_last_round(c, rk, p + 32);
  store_last_round(d, rk, p + 48);
}

void Aes128::decrypt_block(std::uint8_t* s) const {
#ifdef STEINS_AES_REFERENCE
  decrypt_block_ref(s);
#else
  switch (backend()) {
    case CryptoBackend::kHw:
      aesni::decrypt_block(round_keys_.data(), s);
      return;
    case CryptoBackend::kRef:
      decrypt_block_ref(s);
      return;
    case CryptoBackend::kTtable:
      decrypt_block_ttable(s);
      return;
  }
#endif
}

void Aes128::decrypt_block_ttable(std::uint8_t* s) const {
  const std::uint32_t* rk = dec_rk_.data();
  std::uint32_t s0 = load_be32(s) ^ rk[0];
  std::uint32_t s1 = load_be32(s + 4) ^ rk[1];
  std::uint32_t s2 = load_be32(s + 8) ^ rk[2];
  std::uint32_t s3 = load_be32(s + 12) ^ rk[3];

  for (unsigned round = 1; round < kRounds; ++round) {
    rk += 4;
    // InvShiftRows right-rotates row r by r, so output column c pulls row r
    // from column (c - r) mod 4.
    const std::uint32_t t0 = kT.Td[0][s0 >> 24] ^ kT.Td[1][(s3 >> 16) & 0xff] ^
                             kT.Td[2][(s2 >> 8) & 0xff] ^ kT.Td[3][s1 & 0xff] ^ rk[0];
    const std::uint32_t t1 = kT.Td[0][s1 >> 24] ^ kT.Td[1][(s0 >> 16) & 0xff] ^
                             kT.Td[2][(s3 >> 8) & 0xff] ^ kT.Td[3][s2 & 0xff] ^ rk[1];
    const std::uint32_t t2 = kT.Td[0][s2 >> 24] ^ kT.Td[1][(s1 >> 16) & 0xff] ^
                             kT.Td[2][(s0 >> 8) & 0xff] ^ kT.Td[3][s3 & 0xff] ^ rk[2];
    const std::uint32_t t3 = kT.Td[0][s3 >> 24] ^ kT.Td[1][(s2 >> 16) & 0xff] ^
                             kT.Td[2][(s1 >> 8) & 0xff] ^ kT.Td[3][s0 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  rk += 4;
  const auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c, std::uint32_t d) {
    return (static_cast<std::uint32_t>(kInvSbox[a >> 24]) << 24) |
           (static_cast<std::uint32_t>(kInvSbox[(b >> 16) & 0xff]) << 16) |
           (static_cast<std::uint32_t>(kInvSbox[(c >> 8) & 0xff]) << 8) |
           static_cast<std::uint32_t>(kInvSbox[d & 0xff]);
  };
  store_be32(s, last(s0, s3, s2, s1) ^ rk[0]);
  store_be32(s + 4, last(s1, s0, s3, s2) ^ rk[1]);
  store_be32(s + 8, last(s2, s1, s0, s3) ^ rk[2]);
  store_be32(s + 12, last(s3, s2, s1, s0) ^ rk[3]);
}

bool Aes128::self_check() {
  // FIPS-197 Appendix C.1: key 000102...0f, pt 00112233445566778899aabbccddeeff.
  Key key{};
  BlockBytes pt{};
  for (std::size_t i = 0; i < kKeyBytes; ++i) key[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < kBlockBytes; ++i) {
    pt[i] = static_cast<std::uint8_t>(i * 0x11);
  }
  constexpr BlockBytes expect{0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                              0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const Aes128 aes(key);

  BlockBytes fast = pt;
  aes.encrypt_block(fast.data());
  BlockBytes ref = pt;
  aes.encrypt_block_ref(ref.data());
  if (fast != expect || ref != expect) return false;

  aes.decrypt_block(fast.data());
  aes.decrypt_block_ref(ref.data());
  return fast == pt && ref == pt;
}

void Aes128::encrypt_block_ref(std::uint8_t* s) const {
  auto add_round_key = [&](unsigned round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto sub_bytes = [&] {
    for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
  };
  auto shift_rows = [&] {
    // State is column-major: s[c*4 + r].
    std::uint8_t t;
    // Row 1: shift left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: shift left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: shift left by 3 (= right by 1).
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + c * 4;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
      col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
      col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
      col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (unsigned round = 1; round < kRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kRounds);
}

void Aes128::decrypt_block_ref(std::uint8_t* s) const {
  auto add_round_key = [&](unsigned round) {
    for (int i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto inv_sub_bytes = [&] {
    for (int i = 0; i < 16; ++i) s[i] = kInvSbox[s[i]];
  };
  auto inv_shift_rows = [&] {
    std::uint8_t t;
    // Row 1: shift right by 1.
    t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
    // Row 2: shift right by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: shift right by 3 (= left by 1).
    t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
  };
  auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + c * 4;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(gmul(a0, 0x0e) ^ gmul(a1, 0x0b) ^ gmul(a2, 0x0d) ^
                                         gmul(a3, 0x09));
      col[1] = static_cast<std::uint8_t>(gmul(a0, 0x09) ^ gmul(a1, 0x0e) ^ gmul(a2, 0x0b) ^
                                         gmul(a3, 0x0d));
      col[2] = static_cast<std::uint8_t>(gmul(a0, 0x0d) ^ gmul(a1, 0x09) ^ gmul(a2, 0x0e) ^
                                         gmul(a3, 0x0b));
      col[3] = static_cast<std::uint8_t>(gmul(a0, 0x0b) ^ gmul(a1, 0x0d) ^ gmul(a2, 0x09) ^
                                         gmul(a3, 0x0e));
    }
  };

  add_round_key(kRounds);
  for (unsigned round = kRounds - 1; round >= 1; --round) {
    inv_shift_rows();
    inv_sub_bytes();
    add_round_key(round);
    inv_mix_columns();
  }
  inv_shift_rows();
  inv_sub_bytes();
  add_round_key(0);
}

}  // namespace steins::crypto
