#include "redundancy/parity.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/word.h"

namespace blobcr::redundancy {

common::Buffer xor_combine(const common::Buffer& a, const common::Buffer& b) {
  const std::size_t n = std::max(a.size(), b.size());
  if (n == 0) return {};
  if (!a.fully_real() || !b.fully_real()) return common::Buffer::phantom(n);
  // The longer operand's bytes are the result past the shorter one's end.
  const bool a_longer = a.size() >= b.size();
  const auto longer = (a_longer ? a : b).bytes();
  const auto shorter = (a_longer ? b : a).bytes();
  std::vector<std::byte> out(longer.begin(), longer.end());
  std::size_t i = 0;
  for (; i + 8 <= shorter.size(); i += 8) {
    common::store_u64(out.data() + i, common::load_u64(out.data() + i) ^
                                          common::load_u64(shorter.data() + i));
  }
  for (; i < shorter.size(); ++i) out[i] ^= shorter[i];
  return common::Buffer::real(std::move(out));
}

}  // namespace blobcr::redundancy
