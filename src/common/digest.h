// Content digests for end-to-end data integrity checks and chunk identity.
//
// Chunk digests (Buffer::digest, hence ChunkLocation::digest and every
// digest-keyed map) use XXH64, written here from the published algorithm:
// four 64-bit lanes consume 32 bytes per step. FNV-1a 64-bit stays for
// fnv1a(span) because perf/'s kernel probe and the tests call it, and for
// the constexpr string form.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/word.h"

namespace blobcr::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a_step(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

inline std::uint64_t fnv1a(std::span<const std::byte> data,
                           std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const std::byte b : data) h = fnv1a_step(h, std::to_integer<std::uint8_t>(b));
  return h;
}

constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t seed = kFnvOffset) {
  std::uint64_t h = seed;
  for (const char c : text) h = fnv1a_step(h, static_cast<std::uint8_t>(c));
  return h;
}

inline constexpr std::uint64_t kXxhPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kXxhPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kXxhPrime3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kXxhPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kXxhPrime5 = 0x27D4EB2F165667C5ULL;

namespace detail {
constexpr std::uint64_t xxh64_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kXxhPrime2, 31) * kXxhPrime1;
}
}  // namespace detail

/// XXH64 of `data` (the reference algorithm's output for every input).
inline std::uint64_t xxh64(std::span<const std::byte> data,
                           std::uint64_t seed = 0) {
  using detail::xxh64_round;
  const std::byte* const p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  std::uint64_t h = seed + kXxhPrime5;
  if (n >= 32) {
    std::uint64_t v1 = seed + kXxhPrime1 + kXxhPrime2;
    std::uint64_t v2 = seed + kXxhPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kXxhPrime1;
    for (; i + 32 <= n; i += 32) {
      v1 = xxh64_round(v1, load_u64(p + i));
      v2 = xxh64_round(v2, load_u64(p + i + 8));
      v3 = xxh64_round(v3, load_u64(p + i + 16));
      v4 = xxh64_round(v4, load_u64(p + i + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    for (const std::uint64_t v : {v1, v2, v3, v4}) {
      h = (h ^ xxh64_round(0, v)) * kXxhPrime1 + kXxhPrime4;
    }
  }
  h += n;
  for (; i + 8 <= n; i += 8) {
    h = std::rotl(h ^ xxh64_round(0, load_u64(p + i)), 27) * kXxhPrime1 +
        kXxhPrime4;
  }
  if (i + 4 <= n) {
    h = std::rotl(h ^ (load_u32(p + i) * kXxhPrime1), 23) * kXxhPrime2 +
        kXxhPrime3;
    i += 4;
  }
  for (; i < n; ++i) {
    h = std::rotl(h ^ (std::to_integer<std::uint64_t>(p[i]) * kXxhPrime5), 11) *
        kXxhPrime1;
  }
  h ^= h >> 33;
  h *= kXxhPrime2;
  h ^= h >> 29;
  h *= kXxhPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace blobcr::common
