// Byte-size and rate literals used across the code base.
#pragma once

#include <cstdint>

namespace blobcr::common {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;

/// The paper reports sizes in decimal megabytes (e.g. "50 MB data buffer").
inline constexpr std::uint64_t kMB = 1000ULL * 1000ULL;

constexpr std::uint64_t kib(std::uint64_t n) { return n * kKiB; }
constexpr std::uint64_t mib(std::uint64_t n) { return n * kMiB; }
constexpr std::uint64_t mb(std::uint64_t n) { return n * kMB; }

/// Bandwidths are expressed in bytes per (virtual) second.
constexpr double mb_per_s(double n) { return n * 1e6; }

}  // namespace blobcr::common
