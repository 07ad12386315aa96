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
  // Canonical form: a fully-real buffer is one merged segment.
  if (segs_.size() != 1 || segs_[0].phantom()) return {};
  return segs_[0].view();
}

std::span<std::byte> Buffer::mutable_bytes() {
  if (segs_.size() != 1 || segs_[0].phantom()) return {};
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
  // Each segment's hash seeds the next, so segment order counts.
  std::uint64_t h = 0;
  for (const Segment& s : segs_) {
    if (s.phantom()) {
      const std::uint64_t marker = mix64(kPhantomSalt ^ s.length);
      std::byte bytes[sizeof marker];
      std::memcpy(bytes, &marker, sizeof marker);
      h = xxh64(bytes, h);
    } else {
      h = xxh64(s.view(), h);
    }
  }
  return h;
}

void Buffer::push_segment(Segment seg) {
  if (seg.length == 0) return;
  size_ += seg.length;
  if (!segs_.empty()) {
    Segment& last = segs_.back();
    if (last.phantom() && seg.phantom()) {
      last.length += seg.length;
      return;
    }
    if (!last.phantom() && !seg.phantom()) {
      const std::uint64_t last_end = last.offset + last.length;
      if (last.data == seg.data && last_end == seg.offset) {
        last.length += seg.length;  // adjacent views of one storage
      } else if (last.data.use_count() == 1 &&
                 last_end == last.data->size()) {  // sole owner, at its end
        const auto view = seg.view();
        last.data->insert(last.data->end(), view.begin(), view.end());
        last.length += seg.length;
      } else {  // copy both into fresh storage
        auto merged = std::make_shared<Storage>();
        merged->reserve(last.length + seg.length);
        const auto left = last.view();
        const auto right = seg.view();
        merged->insert(merged->end(), left.begin(), left.end());
        merged->insert(merged->end(), right.begin(), right.end());
        last = {std::move(merged), 0, last.length + seg.length};
      }
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
  for (const Segment& s : src.segs_) push_segment(s);
}

void Buffer::overwrite(std::size_t off, const Buffer& src) {
  if (src.size() == 0) return;
  if (off >= size_) {  // zero-fill any gap, then append
    resize(off);
    append(src);
    return;
  }
  // Fast path: a real write fully inside a single real buffer.
  // mutable_bytes() unshares the storage first, so a source viewing the
  // same storage still reads the old bytes.
  if (fully_real() && src.fully_real() && off + src.size() <= size_) {
    const auto from = src.bytes();
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
  // Canonical form makes segment-wise comparison exact.
  if (a.segs_.size() != b.segs_.size()) return false;
  for (std::size_t i = 0; i < a.segs_.size(); ++i) {
    const auto& sa = a.segs_[i];
    const auto& sb = b.segs_[i];
    if (sa.phantom() != sb.phantom() || sa.length != sb.length) return false;
    if (sa.phantom()) continue;
    if (sa.data == sb.data && sa.offset == sb.offset) continue;
    if (std::memcmp(sa.view().data(), sb.view().data(), sa.length) != 0)
      return false;
  }
  return true;
}

}  // namespace blobcr::common
