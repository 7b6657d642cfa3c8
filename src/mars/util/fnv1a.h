// 64-bit FNV-1a: the one home of its constants and mixing steps.
//
// Mapping-cache file names, shard routing, explore mapping digests and
// the search-space record slots all derive from these steps, so they must
// never change a bit. Two offset bases are in use: kBasis, the published
// one, seeds only the mapping-cache fingerprint; kShortBasis, the same
// decimal with its last digit dropped, seeds every other hash.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace mars::util::fnv1a {

inline constexpr std::uint64_t kBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kShortBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kPrime = 0x100000001b3ull;

/// One step, (h ^ w) * prime: a byte for textbook FNV-1a, a whole 64-bit
/// word for the in-memory hashes.
[[nodiscard]] constexpr std::uint64_t word(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * kPrime;
}

[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t h,
                                          std::string_view bytes) {
  for (const char c : bytes) h = word(h, static_cast<unsigned char>(c));
  return h;
}

/// `value` as little-endian bytes, so the hash is platform independent.
[[nodiscard]] constexpr std::uint64_t mix_u32(std::uint64_t h,
                                              std::uint32_t value) {
  for (int i = 0; i < 4; ++i) h = word(h, (value >> (8 * i)) & 0xffu);
  return h;
}

[[nodiscard]] constexpr std::uint64_t mix_u64(std::uint64_t h,
                                              std::uint64_t value) {
  for (int i = 0; i < 8; ++i) h = word(h, (value >> (8 * i)) & 0xffu);
  return h;
}

/// `h` as 16 lower-case hex digits.
[[nodiscard]] inline std::string hex(std::uint64_t h) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

}  // namespace mars::util::fnv1a
