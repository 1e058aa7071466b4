// Non-cryptographic hashes with pinned outputs: FNV-1a-64 for content
// identities and splitmix64 for seeded streams. Journal headers, pipeline
// node keys and the fleet handshake carry their values, so neither may
// change.
#ifndef HV_UTIL_HASH_H
#define HV_UTIL_HASH_H

#include <cstdint>
#include <string>
#include <string_view>

namespace hv {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;
/// splitmix64's stream increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ull;

/// FNV-1a-64 of `text`, continuing from `hash`.
constexpr std::uint64_t fnv1a(std::string_view text, std::uint64_t hash = kFnvOffsetBasis) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// splitmix64's finalizer: a bijective mix spreading every input bit over
/// all 64 output bits.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Advances the splitmix64 stream `state` and returns its next draw.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  state += kGoldenGamma;
  return splitmix64_mix(state);
}

/// The top 53 bits of `bits` as a double in [0, 1).
constexpr double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// `hash` as 16 lower-case hex digits.
inline std::string hex16(std::uint64_t hash) {
  std::string out(16, '0');
  for (std::size_t i = out.size(); i-- > 0; hash >>= 4) out[i] = "0123456789abcdef"[hash & 0xf];
  return out;
}

}  // namespace hv

#endif  // HV_UTIL_HASH_H
