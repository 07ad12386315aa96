// Word-at-a-time helpers shared by the byte kernels on the commit path
// (XXH64 in common/digest.h, the RLE encoder in reduce/rle.h, the parity
// XOR in redundancy/parity.cpp). Loads and stores go through std::memcpy:
// compilers lower it to one unaligned move, and UBSan's alignment check
// accepts it where a pointer cast would not. Byte lanes are numbered by
// address, which is what the lane scans below and XXH64's little-endian
// reads assume.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace blobcr::common {

static_assert(std::endian::native == std::endian::little,
              "word kernels read byte lane k of a word at address p + k");

inline std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

inline std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

inline void store_u64(std::byte* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof w);
}

/// Lane (0-7) of the lowest-addressed nonzero byte of `w`; 8 when w == 0.
inline std::size_t first_nonzero_byte(std::uint64_t w) {
  return static_cast<std::size_t>(std::countr_zero(w)) / 8;
}

/// Lane (0-7) of the lowest-addressed zero byte of `w`; 8 when none is.
/// The classic test `(w - 0x01..) & ~w & 0x80..` can flag a lane above a
/// zero byte (the borrow runs upward), never one below it, so its lowest
/// flagged lane is exact.
inline std::size_t first_zero_byte(std::uint64_t w) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kHighs = 0x8080808080808080ULL;
  return first_nonzero_byte((w - kOnes) & ~w & kHighs);
}

}  // namespace blobcr::common
