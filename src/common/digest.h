// Content digests for end-to-end data integrity checks and chunk identity.
//
// Chunk digests (Buffer::digest, hence ChunkLocation::digest and every
// digest-keyed map) use XXH64, written here from the published algorithm:
// four 64-bit lanes consume 32 bytes per step. It is written once, as an
// incremental state (Xxh64), so a payload held in several pieces hashes as
// one stream; xxh64(span) wraps it. FNV-1a 64-bit stays for
// fnv1a(span) because perf/'s kernel probe and the tests call it, and for
// the constexpr string form.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// Incremental XXH64: update() with the input in any number of pieces,
/// then digest() equals xxh64() of the pieces concatenated. Whole 32-byte
/// stripes are consumed straight from the input; only a stripe that spans
/// two pieces, and the final tail, pass through the 32-byte pending block.
class Xxh64 {
 public:
  explicit Xxh64(std::uint64_t seed = 0)
      : seed_(seed),
        lanes_{seed + kXxhPrime1 + kXxhPrime2, seed + kXxhPrime2, seed,
               seed - kXxhPrime1} {}

  void update(std::span<const std::byte> data) {
    const std::byte* p = data.data();
    std::size_t n = data.size();
    if (n == 0) return;
    total_ += n;
    if (pending_len_ > 0) {
      const std::size_t take = std::min(n, sizeof pending_ - pending_len_);
      std::memcpy(pending_ + pending_len_, p, take);
      pending_len_ += take;
      p += take;
      n -= take;
      if (pending_len_ < sizeof pending_) return;
      consume(pending_, sizeof pending_);
      pending_len_ = 0;
    }
    const std::size_t whole = n - n % 32;
    consume(p, whole);
    if (n > whole) std::memcpy(pending_, p + whole, n - whole);
    pending_len_ = n - whole;
  }

  std::uint64_t digest() const {
    using detail::xxh64_round;
    std::uint64_t h = seed_ + kXxhPrime5;
    if (total_ >= 32) {
      h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
          std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
      for (const std::uint64_t v : lanes_) {
        h = (h ^ xxh64_round(0, v)) * kXxhPrime1 + kXxhPrime4;
      }
    }
    h += total_;
    const std::byte* const p = pending_;
    const std::size_t n = pending_len_;
    std::size_t i = 0;
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
      h = std::rotl(h ^ (std::to_integer<std::uint64_t>(p[i]) * kXxhPrime5),
                    11) *
          kXxhPrime1;
    }
    h ^= h >> 33;
    h *= kXxhPrime2;
    h ^= h >> 29;
    h *= kXxhPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  /// Folds whole stripes [p, p+n) into the lanes; n is a multiple of 32.
  void consume(const std::byte* p, std::size_t n) {
    using detail::xxh64_round;
    std::uint64_t v1 = lanes_[0];
    std::uint64_t v2 = lanes_[1];
    std::uint64_t v3 = lanes_[2];
    std::uint64_t v4 = lanes_[3];
    for (std::size_t i = 0; i < n; i += 32) {
      v1 = xxh64_round(v1, load_u64(p + i));
      v2 = xxh64_round(v2, load_u64(p + i + 8));
      v3 = xxh64_round(v3, load_u64(p + i + 16));
      v4 = xxh64_round(v4, load_u64(p + i + 24));
    }
    lanes_[0] = v1;
    lanes_[1] = v2;
    lanes_[2] = v3;
    lanes_[3] = v4;
  }

  std::uint64_t seed_;
  std::uint64_t lanes_[4];
  std::uint64_t total_ = 0;
  std::byte pending_[32] = {};
  std::size_t pending_len_ = 0;
};

/// XXH64 of `data` (the reference algorithm's output for every input).
inline std::uint64_t xxh64(std::span<const std::byte> data,
                           std::uint64_t seed = 0) {
  Xxh64 state(seed);
  state.update(data);
  return state.digest();
}

}  // namespace blobcr::common
