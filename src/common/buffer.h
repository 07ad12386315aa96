// Buffer: a byte payload composed of *real* segments (actual bytes) and
// *phantom* segments (length-only placeholders).
//
// The simulator's data plane is exercised with real bytes in unit tests,
// integration tests and examples, so content round-trips can be verified by
// digest. Large-scale benchmark sweeps (120 VMs x 200 MB of checkpoint
// state) would not fit in memory, so bulk payloads run as phantoms: all
// sizes, placement decisions and transfer timings are identical, only the
// memcpy is skipped. Because a buffer is piecewise, real content (file
// system metadata, dump headers) survives any assembly that also touches
// phantom content — e.g. a 256 KiB repository chunk holding a real BLCR
// header next to phantom memory pages.
//
// Real bytes live in shared, reference-counted storage: a real segment is a
// view (offset, length) into one storage, so copying, slicing, shrinking
// and appending a buffer cost O(segments) and share bytes instead of
// copying them. A buffer assembled from pieces of several storages keeps
// one segment per piece, and overwrite() writes in place only into a
// one-segment buffer from a one-segment source (otherwise it slices).
// Storage is copy-on-write; besides the bytes an in-place write stores,
// only two things copy bytes:
//   - the first bytes() or mutable_bytes() of a fully-real buffer that
//     holds several segments flattens it into one exactly-sized storage
//     (each copy of such a buffer flattens on its own);
//   - the first write (mutable_bytes(), an in-place overwrite()) to storage
//     another Buffer also holds.
// digest(), operator== and all_zero() read the segments where they are, so
// they never flatten.
//
// A span from bytes() or mutable_bytes() stays valid only until that Buffer
// is next modified or destroyed; mutable_bytes() may copy, so take it again
// after any change instead of keeping an older span.
//
// Canonical form invariant: segments are contiguous from offset 0, adjacent
// phantom segments are merged, and so are adjacent real views that are
// contiguous in one storage. Adjacent real segments of different storages
// stay apart, so a fully-real buffer may hold several segments; digest()
// hashes each run of adjacent real segments as one stream, so a payload's
// digest does not depend on how it is segmented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace blobcr::common {

class Buffer {
 public:
  /// Empty buffer.
  Buffer() = default;

  static Buffer real(std::vector<std::byte> data);
  static Buffer zeros(std::size_t n);
  /// Deterministic pseudo-random content derived from `seed`.
  static Buffer pattern(std::size_t n, std::uint64_t seed);
  static Buffer random(std::size_t n, Rng& rng);
  static Buffer from_string(std::string_view text);
  static Buffer phantom(std::size_t n);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True iff any byte is phantom.
  bool is_phantom() const;
  /// True iff every byte is real (an empty buffer is fully real).
  bool fully_real() const;
  /// True iff non-empty, every byte phantom (no real segments).
  bool fully_phantom() const;
  /// True iff every byte is real and zero (phantom content is unknowable,
  /// so any phantom segment makes this false; empty buffers are not zero).
  bool all_zero() const;

  /// Flat view of the payload; requires fully_real() (empty span otherwise).
  /// Flattens a multi-segment buffer into one storage on first use.
  std::span<const std::byte> bytes() const;
  /// Writable flat view; requires fully_real(). Flattens like bytes(), and
  /// copies the bytes first when another Buffer shares their storage.
  std::span<std::byte> mutable_bytes();

  /// Order-sensitive digest over content; phantom segments contribute a
  /// length-derived sentinel. Equal buffers digest equally; a pure-phantom
  /// buffer's digest depends only on its length.
  std::uint64_t digest() const;

  /// The bytes [off, off+len), sharing this buffer's storage. Requires
  /// off+len <= size().
  Buffer slice(std::size_t off, std::size_t len) const;

  /// Overwrites [off, off+src.size()) with `src`, growing if needed (a gap
  /// beyond the current end is zero-filled).
  void overwrite(std::size_t off, const Buffer& src);

  /// Appends `src` at the end.
  void append(const Buffer& src);

  /// Shrinks or zero-extends to exactly n bytes.
  void resize(std::size_t n);

  std::string to_string() const;  // fully_real() only; empty otherwise

  friend bool operator==(const Buffer& a, const Buffer& b);

 private:
  using Storage = std::vector<std::byte>;

  /// A phantom run (null `data`) or a view of [offset, offset+length) of
  /// shared storage.
  struct Segment {
    std::shared_ptr<Storage> data;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;

    bool phantom() const { return data == nullptr; }
    std::span<const std::byte> view() const {
      return {data->data() + offset, length};
    }
  };

  static Buffer of(Segment seg);
  void push_segment(Segment seg);          // appends + merges
  Buffer slice_segments(std::size_t off, std::size_t len) const;

  // mutable: bytes() flattens in place; the content does not change.
  mutable std::vector<Segment> segs_;
  std::uint64_t size_ = 0;
};

}  // namespace blobcr::common
