#include "crypto/mac.hpp"

#include <cstring>

#include "common/status.hpp"

namespace steins::crypto {

namespace {

SipHash24::Key mac_key(std::uint64_t seed) {
  SipHash24::Key k{};
  std::memcpy(k.data(), &seed, 8);
  std::memcpy(k.data() + 8, &MacEngine::kKeyDomain, 8);
  return k;
}

}  // namespace

MacEngine::MacEngine(std::uint64_t key_seed) : sip_(mac_key(key_seed)) {}

// MAC input assembly is allocation-free by design: node payloads that are a
// multiple of 8 bytes stream straight into SipHash; any other length stages
// the message in a fixed stack buffer. Keep it that way — these run once
// per simulated memory access.
std::uint64_t MacEngine::node_mac(std::span<const std::uint8_t> payload, Addr node_addr,
                                  std::uint64_t parent_counter) const {
  const std::size_t n = payload.size();
  if ((n % 8) == 0) {
    const std::uint64_t words[2] = {node_addr, parent_counter};
    return sip_.hash_concat(payload, words, 2);
  }
  std::uint8_t buf[72];  // up to 56 B payload + addr + parent counter
  STEINS_CHECK(n + 16 <= sizeof(buf), "node_mac payload exceeds the stack buffer");
  std::memcpy(buf, payload.data(), n);
  std::memcpy(buf + n, &node_addr, 8);
  std::memcpy(buf + n + 8, &parent_counter, 8);
  return mac64({buf, n + 16});
}

}  // namespace steins::crypto
