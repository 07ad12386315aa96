#include "common/rangeset.h"

#include <algorithm>
#include <cassert>

namespace blobcr::common {

void RangeSet::insert(std::uint64_t begin, std::uint64_t end) {
  if (end <= begin) return;
  // Find the first range that could overlap or touch [begin, end).
  auto it = ranges_.lower_bound(begin);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;  // touches or overlaps from the left
  }
  // Merge all overlapping/adjacent ranges into [begin, end).
  while (it != ranges_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = ranges_.erase(it);
  }
  ranges_.emplace(begin, end);
}

void RangeSet::erase(std::uint64_t begin, std::uint64_t end) {
  if (end <= begin) return;
  auto it = ranges_.lower_bound(begin);
  if (it != ranges_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  while (it != ranges_.end() && it->first < end) {
    const std::uint64_t r_begin = it->first;
    const std::uint64_t r_end = it->second;
    it = ranges_.erase(it);
    if (r_begin < begin) ranges_.emplace(r_begin, begin);
    if (r_end > end) {
      ranges_.emplace(end, r_end);
      break;
    }
  }
}

bool RangeSet::contains(std::uint64_t begin, std::uint64_t end) const {
  if (end <= begin) return true;
  auto it = ranges_.upper_bound(begin);
  if (it == ranges_.begin()) return false;
  --it;
  return it->first <= begin && it->second >= end;
}

bool RangeSet::intersects(std::uint64_t begin, std::uint64_t end) const {
  if (end <= begin) return false;
  auto it = ranges_.lower_bound(begin);
  if (it != ranges_.end() && it->first < end) return true;
  if (it == ranges_.begin()) return false;
  --it;
  return it->second > begin;
}

std::vector<Range> RangeSet::intersection(std::uint64_t begin,
                                          std::uint64_t end) const {
  std::vector<Range> out;
  if (end <= begin) return out;
  auto it = ranges_.upper_bound(begin);
  if (it != ranges_.begin()) --it;
  for (; it != ranges_.end() && it->first < end; ++it) {
    const std::uint64_t lo = std::max(begin, it->first);
    const std::uint64_t hi = std::min(end, it->second);
    if (lo < hi) out.push_back({lo, hi});
  }
  return out;
}

std::vector<Range> RangeSet::gaps(std::uint64_t begin, std::uint64_t end) const {
  std::vector<Range> out;
  std::uint64_t cursor = begin;
  for (const Range& r : intersection(begin, end)) {
    if (r.begin > cursor) out.push_back({cursor, r.begin});
    cursor = r.end;
  }
  if (cursor < end) out.push_back({cursor, end});
  return out;
}

Range RangeSet::first_gap(std::uint64_t begin, std::uint64_t end) const {
  auto it = ranges_.upper_bound(begin);
  if (it != ranges_.begin()) {
    const auto prev = std::prev(it);
    // Ranges are coalesced, so the next one starts after prev ends.
    if (prev->second > begin) begin = prev->second;
  }
  if (begin >= end) return {end, end};
  return {begin, it == ranges_.end() ? end : std::min(end, it->first)};
}

std::uint64_t RangeSet::total_length() const {
  std::uint64_t total = 0;
  for (const auto& [b, e] : ranges_) total += e - b;
  return total;
}

std::vector<Range> RangeSet::to_vector() const {
  std::vector<Range> out;
  out.reserve(ranges_.size());
  for (const auto& [b, e] : ranges_) out.push_back({b, e});
  return out;
}

}  // namespace blobcr::common
