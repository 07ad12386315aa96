#include "common/buffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/digest.h"

namespace blobcr::common {

namespace {
constexpr std::uint64_t kPhantomSalt = 0x941707011ULL;
}

Buffer Buffer::of(Segment seg) {
  Buffer b;
  b.push_segment(std::move(seg));
  return b;
}

Buffer Buffer::real(std::vector<std::byte> data) {
  const std::uint64_t n = data.size();
  return of({std::make_shared<Storage>(std::move(data)), 0, n});
}

Buffer Buffer::zeros(std::size_t n) {
  return of({std::make_shared<Storage>(n), 0, n});
}

Buffer Buffer::pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> data(n);
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(data.data() + i, &word, 8);
    i += 8;
  }
  if (i < n) {
    const std::uint64_t word = splitmix64(state);
    std::memcpy(data.data() + i, &word, n - i);
  }
  return real(std::move(data));
}

Buffer Buffer::random(std::size_t n, Rng& rng) {
  return pattern(n, rng.next_u64());
}

Buffer Buffer::from_string(std::string_view text) {
  std::vector<std::byte> data(text.size());
  std::memcpy(data.data(), text.data(), text.size());
  return real(std::move(data));
}

Buffer Buffer::phantom(std::size_t n) { return of({nullptr, 0, n}); }

bool Buffer::is_phantom() const {
  for (const Segment& s : segs_) {
    if (s.phantom()) return true;
  }
  return false;
}

bool Buffer::fully_real() const { return !is_phantom(); }

bool Buffer::fully_phantom() const {
  if (segs_.empty()) return false;
  for (const Segment& s : segs_) {
    if (!s.phantom()) return false;
  }
  return true;
}

bool Buffer::all_zero() const {
  if (segs_.empty()) return false;
  for (const Segment& s : segs_) {
    if (s.phantom()) return false;
    for (const std::byte b : s.view()) {
      if (b != std::byte{0}) return false;
    }
  }
  return true;
}

std::span<const std::byte> Buffer::bytes() const {
  if (segs_.empty() || is_phantom()) return {};
  if (segs_.size() > 1) {  // flatten once; later calls reuse the storage
    auto flat = std::make_shared<Storage>();
    flat->reserve(size_);
    for (const Segment& s : segs_) {
      const auto view = s.view();
      flat->insert(flat->end(), view.begin(), view.end());
    }
    segs_.assign(1, Segment{std::move(flat), 0, size_});
  }
  return segs_[0].view();
}

std::span<std::byte> Buffer::mutable_bytes() {
  if (bytes().empty()) return {};
  Segment& s = segs_[0];
  if (s.data.use_count() > 1) {  // copy on write
    const auto view = s.view();
    s = {std::make_shared<Storage>(view.begin(), view.end()), 0, s.length};
  }
  return {s.data->data() + s.offset, s.length};
}

std::uint64_t Buffer::digest() const {
  if (segs_.empty()) return xxh64({});
  if (segs_.size() == 1 && segs_[0].phantom()) {
    // Keep the historical pure-phantom formula.
    return mix64(kPhantomSalt ^ size_);
  }
  // Each run's hash seeds the next, so run order counts. A run of adjacent
  // real segments hashes as one stream: the digest does not depend on how
  // the real bytes are segmented.
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < segs_.size();) {
    if (segs_[i].phantom()) {
      const std::uint64_t marker = mix64(kPhantomSalt ^ segs_[i].length);
      std::byte bytes[sizeof marker];
      std::memcpy(bytes, &marker, sizeof marker);
      h = xxh64(bytes, h);
      ++i;
      continue;
    }
    Xxh64 run(h);
    for (; i < segs_.size() && !segs_[i].phantom(); ++i) {
      run.update(segs_[i].view());
    }
    h = run.digest();
  }
  return h;
}

void Buffer::push_segment(Segment seg) {
  if (seg.length == 0) return;
  size_ += seg.length;
  if (!segs_.empty()) {
    // Phantom runs merge, and so do contiguous views of one storage; real
    // pieces of different storages stay separate segments.
    Segment& last = segs_.back();
    if (last.data == seg.data &&
        (last.phantom() || last.offset + last.length == seg.offset)) {
      last.length += seg.length;
      return;
    }
  }
  segs_.push_back(std::move(seg));
}

Buffer Buffer::slice_segments(std::size_t off, std::size_t len) const {
  Buffer out;
  std::uint64_t pos = 0;
  const std::uint64_t end = off + len;
  for (const Segment& s : segs_) {
    const std::uint64_t s_end = pos + s.length;
    if (s_end > off && pos < end) {
      const std::uint64_t lo = std::max<std::uint64_t>(pos, off);
      const std::uint64_t hi = std::min<std::uint64_t>(s_end, end);
      out.push_segment({s.data, s.phantom() ? 0 : s.offset + (lo - pos),
                        hi - lo});
    }
    pos = s_end;
    if (pos >= end) break;
  }
  return out;
}

Buffer Buffer::slice(std::size_t off, std::size_t len) const {
  assert(off + len <= size_);
  return slice_segments(off, len);
}

void Buffer::append(const Buffer& src) {
  // By index: `src` may be *this, whose segment vector push_segment grows.
  const std::size_t n = src.segs_.size();
  for (std::size_t i = 0; i < n; ++i) push_segment(src.segs_[i]);
}

void Buffer::overwrite(std::size_t off, const Buffer& src) {
  if (src.size() == 0) return;
  if (off >= size_) {  // zero-fill any gap, then append
    resize(off);
    append(src);
    return;
  }
  // Fast path: one real segment written fully inside a one-segment real
  // buffer. mutable_bytes() unshares the storage first, so a source viewing
  // the same storage still reads the old bytes. Any other write slices, so
  // a small write never flattens a multi-segment buffer.
  if (segs_.size() == 1 && !segs_[0].phantom() && src.segs_.size() == 1 &&
      !src.segs_[0].phantom() && off + src.size() <= size_) {
    const auto from = src.segs_[0].view();
    std::memcpy(mutable_bytes().data() + off, from.data(), from.size());
    return;
  }
  Buffer out = slice_segments(0, off);
  out.append(src);
  const std::uint64_t tail_at = off + src.size();
  if (tail_at < size_) {
    out.append(slice_segments(tail_at, size_ - tail_at));
  }
  *this = std::move(out);
}

void Buffer::resize(std::size_t n) {
  if (n == size_) return;
  if (n < size_) {
    *this = slice_segments(0, n);
    return;
  }
  append(zeros(n - size_));
}

std::string Buffer::to_string() const {
  const auto view = bytes();
  if (view.empty() && size_ != 0) return std::string();
  std::string s(view.size(), '\0');
  std::memcpy(s.data(), view.data(), view.size());
  return s;
}

bool operator==(const Buffer& a, const Buffer& b) {
  if (a.size_ != b.size_) return false;
  // Walk both segmentations by byte position, one overlap at a time: equal
  // content may be cut into different real segments. Phantom runs are
  // merged, so equal buffers have phantom bytes at the same positions.
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t at_a = 0;  // bytes of a.segs_[i] already compared
  std::uint64_t at_b = 0;
  while (i < a.segs_.size()) {  // equal sizes: b runs out together with a
    const Buffer::Segment& sa = a.segs_[i];
    const Buffer::Segment& sb = b.segs_[j];
    if (sa.phantom() != sb.phantom()) return false;
    const std::uint64_t n = std::min(sa.length - at_a, sb.length - at_b);
    const std::uint64_t from_a = sa.offset + at_a;
    const std::uint64_t from_b = sb.offset + at_b;
    if (!sa.phantom() && (sa.data != sb.data || from_a != from_b) &&
        std::memcmp(sa.data->data() + from_a, sb.data->data() + from_b, n) !=
            0) {
      return false;
    }
    at_a += n;
    at_b += n;
    if (at_a == sa.length) {
      ++i;
      at_a = 0;
    }
    if (at_b == sb.length) {
      ++j;
      at_b = 0;
    }
  }
  return true;
}

}  // namespace blobcr::common
