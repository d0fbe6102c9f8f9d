// MacEngine: the keyed-MAC facade used for SIT node HMACs and data HMACs.
//
// Every MAC is SipHash-2-4, a keyed 64-bit PRF, under the key
// seed || "MAC_KEY1" (domain-separated from the OTP key). The paper calls
// these tags HMACs; the simulator charges the modeled hash latency
// (SecureConfig::hash_latency_cycles) per tag, independent of the function.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "crypto/siphash.hpp"

namespace steins::crypto {

class MacEngine {
 public:
  /// Key-derivation domain constant: the upper 8 bytes of the SipHash key.
  static constexpr std::uint64_t kKeyDomain = 0x4d41435f4b455931ULL;  // "MAC_KEY1"

  explicit MacEngine(std::uint64_t key_seed);

  /// Generic keyed 64-bit MAC over raw bytes.
  std::uint64_t mac64(std::span<const std::uint8_t> data) const { return sip_.hash(data); }

  /// SIT node HMAC (paper §II-C): MAC over (counter payload, node address,
  /// parent counter). `payload` is the node's 56-byte counter area.
  std::uint64_t node_mac(std::span<const std::uint8_t> payload, Addr node_addr,
                         std::uint64_t parent_counter) const;

  /// Data-block HMAC (paper §II-C): MAC over (ciphertext, address, counter).
  /// `aux` lets Steins-SC fold the leaf major counter into the data HMAC
  /// (paper §II-D: "we store the major counter in the HMAC of the data
  /// block for recovery"); pass 0 when unused.
  std::uint64_t data_mac(const Block& ciphertext, Addr addr, std::uint64_t counter,
                         std::uint64_t aux = 0) const {
    return data_mac_finish(data_mac_prefix(ciphertext, addr), counter, aux);
  }

  /// data_mac split at the counter: the (ciphertext, address) prefix is
  /// absorbed once, and each candidate counter only finishes the hash.
  /// Recovery's counter search tries up to a window of counters per block.
  SipHash24::Prefix data_mac_prefix(const Block& ciphertext, Addr addr) const {
    return sip_.absorb({ciphertext.data(), kBlockSize}, &addr, 1);
  }
  std::uint64_t data_mac_finish(const SipHash24::Prefix& prefix, std::uint64_t counter,
                                std::uint64_t aux = 0) const {
    const std::uint64_t words[2] = {counter, aux};
    return sip_.finish(prefix, words, 2);
  }

 private:
  SipHash24 sip_;
};

}  // namespace steins::crypto
