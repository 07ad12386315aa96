#include "common/sparse.h"

#include <algorithm>

namespace blobcr::common {

void SparseFile::erase(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t end = offset + len;
  auto it = extents_.lower_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  while (it != extents_.end() && it->first < end) {
    const std::uint64_t e_begin = it->first;
    const std::uint64_t e_end = e_begin + it->second.size();
    Buffer data = std::move(it->second);
    allocated_ -= data.size();
    it = extents_.erase(it);
    if (e_begin < offset) {
      Buffer left = data.slice(0, offset - e_begin);
      allocated_ += left.size();
      extents_.emplace(e_begin, std::move(left));
    }
    if (e_end > end) {
      Buffer right = data.slice(end - e_begin, e_end - end);
      allocated_ += right.size();
      extents_.emplace(end, std::move(right));
      break;
    }
  }
}

void SparseFile::write(std::uint64_t offset, Buffer data) {
  if (data.size() == 0) return;
  erase(offset, data.size());
  size_ = std::max(size_, offset + data.size());
  allocated_ += data.size();
  extents_.emplace(offset, std::move(data));
}

Buffer SparseFile::read(std::uint64_t offset, std::uint64_t len) const {
  if (len == 0) return Buffer();
  const std::uint64_t end = offset + len;
  auto it = extents_.lower_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  // Piecewise assembly preserves real content next to phantom content.
  Buffer out;
  std::uint64_t cursor = offset;
  for (; it != extents_.end() && it->first < end; ++it) {
    const std::uint64_t e_begin = it->first;
    const std::uint64_t e_end = e_begin + it->second.size();
    const std::uint64_t lo = std::max(offset, e_begin);
    const std::uint64_t hi = std::min(end, e_end);
    if (lo >= hi) continue;
    if (lo > cursor) out.append(Buffer::zeros(lo - cursor));  // hole
    out.append(it->second.slice(lo - e_begin, hi - lo));
    cursor = hi;
  }
  if (cursor < end) out.append(Buffer::zeros(end - cursor));
  return out;
}

std::vector<std::pair<std::uint64_t, Buffer>> SparseFile::read_extents(
    std::uint64_t offset, std::uint64_t len, std::uint64_t max_piece) const {
  std::vector<std::pair<std::uint64_t, Buffer>> out;
  if (len == 0) return out;
  const std::uint64_t end = offset + len;
  auto it = extents_.lower_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size() > offset) it = prev;
  }
  for (; it != extents_.end() && it->first < end; ++it) {
    const std::uint64_t e_begin = it->first;
    const std::uint64_t e_end = e_begin + it->second.size();
    const std::uint64_t lo = std::max(offset, e_begin);
    const std::uint64_t hi = std::min(end, e_end);
    if (lo >= hi) continue;
    Buffer piece = it->second.slice(lo - e_begin, hi - lo);
    // Merge with the previous piece when contiguous, same phantomness and
    // under the size cap.
    if (!out.empty()) {
      auto& [prev_off, prev_buf] = out.back();
      if (prev_off + prev_buf.size() == lo &&
          prev_buf.is_phantom() == piece.is_phantom() &&
          prev_buf.size() + piece.size() <= max_piece) {
        prev_buf.append(piece);
        continue;
      }
    }
    out.emplace_back(lo, std::move(piece));
  }
  return out;
}

void SparseFile::clear() {
  extents_.clear();
  allocated_ = 0;
  size_ = 0;
}

}  // namespace blobcr::common
