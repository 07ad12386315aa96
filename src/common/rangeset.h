// RangeSet: a set of disjoint half-open byte ranges [begin, end), kept
// coalesced. Used for dirty-block tracking in the mirroring module, local
// availability maps for lazy fetching, and free-extent accounting.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace blobcr::common {

struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive

  std::uint64_t length() const { return end - begin; }
  bool empty() const { return end <= begin; }
  friend bool operator==(const Range&, const Range&) = default;
};

class RangeSet {
 public:
  void insert(std::uint64_t begin, std::uint64_t end);
  void insert(const Range& r) { insert(r.begin, r.end); }
  void erase(std::uint64_t begin, std::uint64_t end);

  /// True iff [begin, end) is fully covered.
  bool contains(std::uint64_t begin, std::uint64_t end) const;
  /// True iff any byte of [begin, end) is covered.
  bool intersects(std::uint64_t begin, std::uint64_t end) const;

  /// Portions of [begin, end) that are covered, in order.
  std::vector<Range> intersection(std::uint64_t begin, std::uint64_t end) const;
  /// Portions of [begin, end) that are NOT covered, in order.
  std::vector<Range> gaps(std::uint64_t begin, std::uint64_t end) const;
  /// First uncovered portion of [begin, end); empty when fully covered.
  Range first_gap(std::uint64_t begin, std::uint64_t end) const;

  std::uint64_t total_length() const;
  bool empty() const { return ranges_.empty(); }
  std::size_t piece_count() const { return ranges_.size(); }
  void clear() { ranges_.clear(); }

  std::vector<Range> to_vector() const;

 private:
  // begin -> end, disjoint, non-adjacent (always coalesced).
  std::map<std::uint64_t, std::uint64_t> ranges_;
};

}  // namespace blobcr::common
