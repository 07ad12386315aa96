// Byte-level run-length codec used by the reduction pipeline's compression
// stage. Token stream:
//
//   t < 0x80  => literal run: the next (t + 1) bytes are copied verbatim;
//   t >= 0x80 => repeat run: the next byte repeats (t - 0x80 + kMinRun)
//                times (kMinRun..kMaxRun).
//
// Worst case (no runs) the output is input + input/128 + 1 bytes, so the
// pipeline only keeps an encoding that is strictly smaller than the raw
// payload. Decoding is exact: encode/decode round-trips bit-identically,
// which is what lets snapshot read-back verification stay end-to-end.
//
// Depends only on common/ so the blob read path can decode without pulling
// in the rest of the reduction subsystem.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/word.h"

namespace blobcr::reduce {

inline constexpr std::size_t kRleMinRun = 3;
inline constexpr std::size_t kRleMaxRun = 0x7f + kRleMinRun;  // 130
inline constexpr std::size_t kRleMaxLiteral = 0x80;           // 128

class RleError : public std::runtime_error {
 public:
  explicit RleError(const char* what) : std::runtime_error(what) {}
};

namespace detail {

/// First position p >= `from` that starts kRleMinRun equal bytes, or
/// in.size() when there is none. Eight candidate starts per step: byte lane
/// k of (w0 ^ w1) | (w0 ^ w2) is zero iff in[p+k] == in[p+k+1] == in[p+k+2].
inline std::size_t find_run(std::span<const std::byte> in, std::size_t from) {
  const std::size_t n = in.size();
  std::size_t p = from;
  for (; p + 10 <= n; p += 8) {  // the load at p + 2 reads up to p + 9
    const std::uint64_t w0 = common::load_u64(in.data() + p);
    const std::uint64_t w1 = common::load_u64(in.data() + p + 1);
    const std::uint64_t w2 = common::load_u64(in.data() + p + 2);
    const std::size_t lane = common::first_zero_byte((w0 ^ w1) | (w0 ^ w2));
    if (lane < 8) return p + lane;
  }
  for (; p + kRleMinRun <= n; ++p) {
    if (in[p] == in[p + 1] && in[p] == in[p + 2]) return p;
  }
  return n;
}

/// Length of the run of in[at] starting at `at`, which find_run found to be
/// at least kRleMinRun long, capped at kRleMaxRun.
inline std::size_t run_length(std::span<const std::byte> in, std::size_t at) {
  const std::size_t limit = std::min(kRleMaxRun, in.size() - at);
  const std::uint64_t fill =
      0x0101010101010101ULL * std::to_integer<std::uint64_t>(in[at]);
  std::size_t run = kRleMinRun;
  for (; run + 8 <= limit; run += 8) {
    const std::uint64_t diff = common::load_u64(in.data() + at + run) ^ fill;
    if (diff != 0) return run + common::first_nonzero_byte(diff);
  }
  while (run < limit && in[at + run] == in[at]) ++run;
  return run;
}

}  // namespace detail

inline std::vector<std::byte> rle_encode(std::span<const std::byte> in) {
  std::vector<std::byte> out;
  out.reserve(in.size() / 4 + 16);

  const auto emit_literals = [&](std::size_t at, std::size_t end) {
    while (at < end) {
      const std::size_t n = std::min(kRleMaxLiteral, end - at);
      out.push_back(static_cast<std::byte>(n - 1));
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(at),
                 in.begin() + static_cast<std::ptrdiff_t>(at + n));
      at += n;
    }
  };

  // Bytes before each run (and any 1- or 2-byte repeats among them) go out
  // as literals; a run longer than kRleMaxRun continues as the next run.
  std::size_t done = 0;
  for (std::size_t at = detail::find_run(in, 0); at < in.size();
       at = detail::find_run(in, done)) {
    const std::size_t run = detail::run_length(in, at);
    emit_literals(done, at);
    out.push_back(static_cast<std::byte>(0x80 + (run - kRleMinRun)));
    out.push_back(in[at]);
    done = at + run;
  }
  emit_literals(done, in.size());
  return out;
}

/// Decodes exactly `logical_size` bytes; throws RleError on any mismatch.
inline std::vector<std::byte> rle_decode(std::span<const std::byte> in,
                                         std::size_t logical_size) {
  std::vector<std::byte> out;
  out.reserve(logical_size);
  std::size_t i = 0;
  while (i < in.size()) {
    const auto t = std::to_integer<std::uint8_t>(in[i++]);
    if (t < 0x80) {
      const std::size_t n = static_cast<std::size_t>(t) + 1;
      if (i + n > in.size()) throw RleError("rle literal past end");
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(i),
                 in.begin() + static_cast<std::ptrdiff_t>(i + n));
      i += n;
    } else {
      if (i >= in.size()) throw RleError("rle run past end");
      const std::size_t n = static_cast<std::size_t>(t - 0x80) + kRleMinRun;
      out.insert(out.end(), n, in[i++]);
    }
    if (out.size() > logical_size) throw RleError("rle overflow");
  }
  if (out.size() != logical_size) throw RleError("rle size mismatch");
  return out;
}

}  // namespace blobcr::reduce
