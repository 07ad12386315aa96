// Virtual time. All simulation timestamps are int64 nanoseconds so that event
// ordering is exact and runs are bit-reproducible.
#pragma once

#include <cmath>
#include <cstdint>

namespace blobcr::sim {

using Time = std::int64_t;      // nanoseconds since simulation start
using Duration = std::int64_t;  // nanoseconds

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1000;
inline constexpr Duration kMillisecond = 1000 * 1000;
inline constexpr Duration kSecond = 1000 * 1000 * 1000;

constexpr Duration milliseconds(std::int64_t n) { return n * kMillisecond; }
constexpr Duration seconds(std::int64_t n) { return n * kSecond; }

constexpr double to_seconds(Duration d) {
  return static_cast<double>(d) / 1e9;
}

constexpr Duration from_seconds(double s) {
  return static_cast<Duration>(s * 1e9);
}

/// Time to move `bytes` at `bytes_per_sec`, rounded up to whole nanoseconds.
inline Duration transfer_time(std::uint64_t bytes, double bytes_per_sec) {
  if (bytes == 0) return 0;
  const double secs = static_cast<double>(bytes) / bytes_per_sec;
  return static_cast<Duration>(std::ceil(secs * 1e9));
}

}  // namespace blobcr::sim
