// Unit + property tests for common: Buffer, RangeSet, Rng, digests, strutil.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "common/digest.h"
#include "common/rangeset.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "common/units.h"

namespace blobcr::common {
namespace {

TEST(BufferTest, EmptyByDefault) {
  Buffer b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.is_phantom());
}

TEST(BufferTest, PatternIsDeterministic) {
  const Buffer a = Buffer::pattern(1000, 42);
  const Buffer b = Buffer::pattern(1000, 42);
  const Buffer c = Buffer::pattern(1000, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.digest(), c.digest());
}

TEST(BufferTest, PatternNonAlignedTail) {
  const Buffer a = Buffer::pattern(13, 7);
  EXPECT_EQ(a.size(), 13u);
  const Buffer b = Buffer::pattern(13, 7);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(BufferTest, SliceRoundTrip) {
  const Buffer a = Buffer::pattern(100, 1);
  const Buffer s = a.slice(10, 20);
  EXPECT_EQ(s.size(), 20u);
  Buffer whole = Buffer::zeros(100);
  whole.overwrite(0, a);
  EXPECT_EQ(whole.slice(10, 20), s);
}

TEST(BufferTest, OverwriteGrows) {
  Buffer b = Buffer::zeros(10);
  b.overwrite(8, Buffer::pattern(6, 9));
  EXPECT_EQ(b.size(), 14u);
  EXPECT_EQ(b.slice(8, 6), Buffer::pattern(6, 9));
}

TEST(BufferTest, OverwritePreservesSurroundings) {
  Buffer b = Buffer::pattern(30, 3);
  const Buffer before = b.slice(0, 10);
  const Buffer after = b.slice(20, 10);
  b.overwrite(10, Buffer::pattern(10, 4));
  EXPECT_EQ(b.slice(0, 10), before);
  EXPECT_EQ(b.slice(20, 10), after);
  EXPECT_EQ(b.slice(10, 10), Buffer::pattern(10, 4));
}

TEST(BufferTest, PhantomBasics) {
  const Buffer p = Buffer::phantom(500);
  EXPECT_TRUE(p.is_phantom());
  EXPECT_EQ(p.size(), 500u);
  EXPECT_TRUE(p.bytes().empty());
  EXPECT_EQ(p.digest(), Buffer::phantom(500).digest());
  EXPECT_NE(p.digest(), Buffer::phantom(501).digest());
}

TEST(BufferTest, PhantomIsContagious) {
  Buffer b = Buffer::pattern(100, 5);
  b.overwrite(50, Buffer::phantom(10));
  EXPECT_TRUE(b.is_phantom());
  EXPECT_EQ(b.size(), 100u);
}

TEST(BufferTest, PhantomSliceStaysPhantom) {
  const Buffer p = Buffer::phantom(100);
  const Buffer s = p.slice(10, 50);
  EXPECT_TRUE(s.is_phantom());
  EXPECT_EQ(s.size(), 50u);
}

TEST(BufferTest, EqualityDistinguishesPhantomFromReal) {
  EXPECT_NE(Buffer::phantom(10), Buffer::zeros(10));
  EXPECT_EQ(Buffer::phantom(10), Buffer::phantom(10));
}

TEST(BufferTest, FromStringRoundTrip) {
  const Buffer b = Buffer::from_string("hello world");
  EXPECT_EQ(b.to_string(), "hello world");
  EXPECT_EQ(b.size(), 11u);
}

TEST(BufferTest, ResizeZeroExtends) {
  Buffer b = Buffer::from_string("ab");
  b.resize(4);
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b.bytes()[2], std::byte{0});
  b.resize(1);
  EXPECT_EQ(b.to_string(), "a");
}

// One content (real bytes, a phantom run, real bytes) built flat and from
// pieces of distinct storages: the segmentation must not show through ==,
// digest(), all_zero() or bytes(), and a write through one buffer's
// mutable_bytes() must not reach the storages it shares.
TEST(BufferTest, PiecewiseContentMatchesFlat) {
  constexpr std::size_t kPieces[] = {1, 7, 31, 32, 33};
  constexpr std::size_t kReal = 1 + 7 + 31 + 32 + 33;
  constexpr std::size_t kPhantom = 40;
  constexpr std::size_t kPad = 5;  // each piece views the middle of its storage
  const Buffer head = Buffer::pattern(kReal, 11);
  const Buffer tail = Buffer::pattern(kReal, 12);
  Buffer flat = head;
  flat.append(Buffer::phantom(kPhantom));
  flat.append(tail);

  std::vector<Buffer> holders;  // own the pieces' storages
  std::vector<Buffer> holders_before;
  auto piecewise_of = [&](const Buffer& real) {
    const auto src = real.bytes();
    Buffer out;
    std::size_t at = 0;
    for (const std::size_t len : kPieces) {
      std::vector<std::byte> storage(kPad, std::byte{0x5a});
      storage.insert(storage.end(), src.begin() + at, src.begin() + at + len);
      storage.insert(storage.end(), kPad, std::byte{0xa5});
      holders.push_back(Buffer::real(storage));
      holders_before.push_back(Buffer::real(storage));  // a separate copy
      out.append(holders.back().slice(kPad, len));
      at += len;
    }
    return out;
  };
  Buffer piecewise = piecewise_of(head);
  piecewise.append(Buffer::phantom(kPhantom));
  piecewise.append(piecewise_of(tail));

  EXPECT_EQ(piecewise, flat);
  EXPECT_EQ(flat, piecewise);
  EXPECT_EQ(piecewise.digest(), flat.digest());
  EXPECT_EQ(piecewise.all_zero(), flat.all_zero());
  EXPECT_NE(piecewise, Buffer::phantom(flat.size()));
  for (const std::size_t base : {std::size_t{0}, kReal + kPhantom}) {
    for (std::size_t off = 0; off < kReal; ++off) {
      for (std::size_t len = 1; off + len <= kReal; ++len) {
        const Buffer a = piecewise.slice(base + off, len);
        const Buffer b = flat.slice(base + off, len);
        ASSERT_EQ(a, b) << base + off << "+" << len;
        ASSERT_EQ(a.digest(), b.digest()) << base + off << "+" << len;
        const auto va = a.bytes();
        const auto vb = b.bytes();
        ASSERT_TRUE(std::equal(va.begin(), va.end(), vb.begin(), vb.end()))
            << base + off << "+" << len;
      }
    }
  }

  // Fully-real piecewise zeros against one zero storage.
  Buffer zeros;
  for (const std::size_t len : kPieces) zeros.append(Buffer::zeros(len));
  EXPECT_TRUE(zeros.all_zero());
  EXPECT_EQ(zeros, Buffer::zeros(kReal));
  EXPECT_EQ(zeros.digest(), Buffer::zeros(kReal).digest());

  // A write through a piecewise copy flattens that copy alone.
  Buffer copy = piecewise.slice(0, kReal);
  const auto writable = copy.mutable_bytes();
  ASSERT_EQ(writable.size(), kReal);
  for (std::size_t i = 0; i < kReal; i += 3) writable[i] = ~writable[i];
  EXPECT_NE(copy, head);
  EXPECT_EQ(piecewise, flat);
  EXPECT_EQ(piecewise.digest(), flat.digest());
  for (std::size_t i = 0; i < holders.size(); ++i) {
    EXPECT_EQ(holders[i], holders_before[i]) << "storage " << i;
  }
}

// Differential test of Buffer's shared copy-on-write storage: seeded random
// sequences of slice, copy, append, overwrite (in place and growing), resize
// and mutable_bytes() writes over mixed real/phantom buffers, checked after
// every step against a flat model (the bytes plus a per-byte phantom flag).
// Every live buffer is re-checked after every step, so a write that leaks
// into another buffer viewing the same storage shows up there.
struct FlatModel {
  std::vector<std::byte> bytes;  // zero under phantom bytes
  std::vector<bool> phantom;

  std::size_t size() const { return bytes.size(); }

  FlatModel slice(std::size_t off, std::size_t len) const {
    return {{bytes.begin() + static_cast<std::ptrdiff_t>(off),
             bytes.begin() + static_cast<std::ptrdiff_t>(off + len)},
            {phantom.begin() + static_cast<std::ptrdiff_t>(off),
             phantom.begin() + static_cast<std::ptrdiff_t>(off + len)}};
  }
  void resize(std::size_t n) {
    bytes.resize(n, std::byte{0});
    phantom.resize(n, false);
  }
  void overwrite(std::size_t off, const FlatModel& src) {
    if (src.size() == 0) return;  // Buffer::overwrite never grows for it
    if (off + src.size() > size()) resize(off + src.size());
    std::copy(src.bytes.begin(), src.bytes.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(off));
    std::copy(src.phantom.begin(), src.phantom.end(),
              phantom.begin() + static_cast<std::ptrdiff_t>(off));
  }
  void append(const FlatModel& src) { overwrite(size(), src); }

  /// A buffer built from scratch, one fresh storage per real run.
  Buffer build() const {
    Buffer out;
    for (std::size_t i = 0; i < size();) {
      std::size_t j = i;
      while (j < size() && phantom[j] == phantom[i]) ++j;
      const auto from = bytes.begin() + static_cast<std::ptrdiff_t>(i);
      const auto to = bytes.begin() + static_cast<std::ptrdiff_t>(j);
      out.append(phantom[i] ? Buffer::phantom(j - i)
                            : Buffer::real({from, to}));
      i = j;
    }
    return out;
  }

  friend bool operator==(const FlatModel&, const FlatModel&) = default;
};

FlatModel model_of(const Buffer& b) {  // b is fully real
  const auto view = b.bytes();
  return {{view.begin(), view.end()}, std::vector<bool>(view.size(), false)};
}

::testing::AssertionResult Matches(const Buffer& b, const FlatModel& m) {
  const bool any_phantom =
      std::find(m.phantom.begin(), m.phantom.end(), true) != m.phantom.end();
  const bool all_phantom =
      std::find(m.phantom.begin(), m.phantom.end(), false) == m.phantom.end();
  const bool zero = std::all_of(m.bytes.begin(), m.bytes.end(),
                                [](std::byte x) { return x == std::byte{0}; });
  const Buffer fresh = m.build();
  const auto view = b.bytes();
  const std::vector<std::byte> flat(view.begin(), view.end());
  if (b.size() != m.size())
    return ::testing::AssertionFailure() << "size " << b.size() << " vs "
                                         << m.size();
  if (b.is_phantom() != any_phantom)
    return ::testing::AssertionFailure() << "is_phantom";
  if (b.fully_real() != !any_phantom)
    return ::testing::AssertionFailure() << "fully_real";
  if (b.fully_phantom() != (m.size() > 0 && all_phantom))
    return ::testing::AssertionFailure() << "fully_phantom";
  if (b.all_zero() != (m.size() > 0 && !any_phantom && zero))
    return ::testing::AssertionFailure() << "all_zero";
  if (flat != (any_phantom ? std::vector<std::byte>{} : m.bytes))
    return ::testing::AssertionFailure() << "bytes() differ";
  if (!(b == fresh)) return ::testing::AssertionFailure() << "operator==";
  if (b.digest() != fresh.digest())
    return ::testing::AssertionFailure() << "digest";
  return ::testing::AssertionSuccess();
}

class BufferSharingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferSharingTest, MatchesFlatModel) {
  Rng rng(GetParam());
  struct Entry {
    Buffer buf;
    FlatModel model;
  };
  constexpr std::size_t kPoolCap = 16;
  std::vector<Entry> pool;
  pool.reserve(kPoolCap);  // `e` below stays valid across add()
  auto fresh_real = [&](std::size_t n) {
    const Buffer b = Buffer::pattern(n, rng.next_u64());
    return Entry{b, model_of(b)};
  };
  auto add = [&](Entry e) {
    if (pool.size() < kPoolCap) {
      pool.push_back(std::move(e));
    } else {
      pool[rng.uniform(kPoolCap)] = std::move(e);
    }
  };
  auto pick = [&] { return rng.uniform(pool.size()); };
  pool.push_back(fresh_real(64));
  pool.push_back({Buffer::zeros(40), FlatModel{}});
  pool.back().model.resize(40);
  pool.push_back({Buffer::phantom(24), FlatModel{}});
  pool.back().model.phantom.assign(24, true);
  pool.back().model.bytes.resize(24);
  {
    Entry mixed = fresh_real(32);
    mixed.buf.append(pool[2].buf);
    mixed.model.append(pool[2].model);
    const Entry tail = fresh_real(16);
    mixed.buf.append(tail.buf);
    mixed.model.append(tail.model);
    pool.push_back(std::move(mixed));
  }

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.uniform(8);
    Entry& e = pool[pick()];
    const std::size_t n = e.buf.size();
    switch (op) {
      case 0: {  // two slices of one length at two offsets
        const std::size_t len = rng.uniform(n + 1);
        const std::size_t a = rng.uniform(n - len + 1);
        const std::size_t b = rng.uniform(n - len + 1);
        Entry first{e.buf.slice(a, len), e.model.slice(a, len)};
        Entry second{e.buf.slice(b, len), e.model.slice(b, len)};
        add(std::move(first));
        add(std::move(second));
        break;
      }
      case 1:  // copy
        add(e);
        break;
      case 2: {  // append another buffer (possibly this one's copy)
        const Entry src = rng.chance(0.3) ? fresh_real(rng.uniform(48))
                                          : pool[pick()];
        e.buf.append(src.buf);
        e.model.append(src.model);
        break;
      }
      case 3: {  // overwrite in place, often from a slice of itself
        if (n == 0) break;
        const std::size_t len = 1 + rng.uniform(n);
        const std::size_t from = rng.uniform(n - len + 1);
        const Entry src = rng.chance(0.5)
                              ? Entry{e.buf.slice(from, len),
                                      e.model.slice(from, len)}
                              : fresh_real(len);
        const std::size_t off = rng.uniform(n - len + 1);
        e.buf.overwrite(off, src.buf);
        e.model.overwrite(off, src.model);
        break;
      }
      case 4: {  // overwrite that may run past the end or leave a gap
        const Entry src = pool[pick()];
        const std::size_t off = rng.uniform(n + 16);
        e.buf.overwrite(off, src.buf);
        e.model.overwrite(off, src.model);
        break;
      }
      case 5: {  // shrink or zero-extend
        const std::size_t to = rng.uniform(n + 48);
        e.buf.resize(to);
        e.model.resize(to);
        break;
      }
      case 6: {  // write through mutable_bytes()
        if (n == 0 || !e.buf.fully_real()) break;
        const auto writable = e.buf.mutable_bytes();
        ASSERT_EQ(writable.size(), n);
        for (int k = 0; k < 4; ++k) {
          const std::size_t at = rng.uniform(n);
          const auto value = static_cast<std::byte>(rng.uniform(256));
          writable[at] = value;
          e.model.bytes[at] = value;
        }
        break;
      }
      case 7: {  // a span from one copy survives an append to the other
        if (n == 0 || !e.buf.fully_real()) break;
        Entry twin = e;
        const auto pinned = e.buf.bytes();
        const std::vector<std::byte> before(pinned.begin(), pinned.end());
        const Entry tail = fresh_real(1 + rng.uniform(48));
        twin.buf.append(tail.buf);
        twin.model.append(tail.model);
        ASSERT_EQ(e.buf.bytes().data(), pinned.data()) << "step " << step;
        ASSERT_TRUE(std::equal(pinned.begin(), pinned.end(), before.begin(),
                               before.end()))
            << "step " << step;
        add(std::move(twin));
        break;
      }
    }
    // Digest and == first: Matches() calls bytes(), which flattens a
    // fully-real buffer, and these must also hold for the segmentation
    // the step left (appends of distinct storages make several segments).
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ASSERT_EQ(pool[i].buf.digest(), pool[i].model.build().digest())
          << "step " << step << " op " << op << " buffer " << i;
      for (std::size_t j = 0; j < i; ++j) {
        ASSERT_EQ(pool[i].buf == pool[j].buf, pool[i].model == pool[j].model)
            << "step " << step << " op " << op << " buffers " << i << ", "
            << j;
      }
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ASSERT_TRUE(Matches(pool[i].buf, pool[i].model))
          << "step " << step << " op " << op << " buffer " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferSharingTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(RangeSetTest, InsertCoalescesAdjacent) {
  RangeSet rs;
  rs.insert(0, 10);
  rs.insert(10, 20);
  EXPECT_EQ(rs.piece_count(), 1u);
  EXPECT_TRUE(rs.contains(0, 20));
  EXPECT_EQ(rs.total_length(), 20u);
}

TEST(RangeSetTest, InsertMergesOverlapping) {
  RangeSet rs;
  rs.insert(0, 10);
  rs.insert(20, 30);
  rs.insert(5, 25);
  EXPECT_EQ(rs.piece_count(), 1u);
  EXPECT_EQ(rs.total_length(), 30u);
}

TEST(RangeSetTest, EraseSplits) {
  RangeSet rs;
  rs.insert(0, 30);
  rs.erase(10, 20);
  EXPECT_EQ(rs.piece_count(), 2u);
  EXPECT_TRUE(rs.contains(0, 10));
  EXPECT_TRUE(rs.contains(20, 30));
  EXPECT_FALSE(rs.intersects(10, 20));
}

TEST(RangeSetTest, GapsOfPartiallyCovered) {
  RangeSet rs;
  rs.insert(10, 20);
  rs.insert(30, 40);
  const auto gaps = rs.gaps(0, 50);
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_EQ(gaps[0], (Range{0, 10}));
  EXPECT_EQ(gaps[1], (Range{20, 30}));
  EXPECT_EQ(gaps[2], (Range{40, 50}));
}

TEST(RangeSetTest, IntersectionClips) {
  RangeSet rs;
  rs.insert(10, 20);
  const auto xs = rs.intersection(15, 50);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0], (Range{15, 20}));
}

TEST(RangeSetTest, EmptyRangeInsertIgnored) {
  RangeSet rs;
  rs.insert(5, 5);
  EXPECT_TRUE(rs.empty());
}

TEST(RangeSetTest, ContainsEmptyRangeTrue) {
  RangeSet rs;
  EXPECT_TRUE(rs.contains(3, 3));
}

// Property test: RangeSet behaves exactly like a reference bit set under a
// random operation sequence.
class RangeSetPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetPropertyTest, MatchesReferenceBitset) {
  Rng rng(GetParam());
  constexpr std::uint64_t kUniverse = 256;
  RangeSet rs;
  std::vector<bool> ref(kUniverse, false);
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t a = rng.uniform(kUniverse);
    const std::uint64_t b = a + rng.uniform(kUniverse - a + 1);
    if (rng.chance(0.6)) {
      rs.insert(a, b);
      for (std::uint64_t i = a; i < b; ++i) ref[i] = true;
    } else {
      rs.erase(a, b);
      for (std::uint64_t i = a; i < b; ++i) ref[i] = false;
    }
    // Invariant: coverage matches, coalescing holds.
    std::uint64_t ref_total = 0;
    for (bool v : ref) ref_total += v ? 1 : 0;
    ASSERT_EQ(rs.total_length(), ref_total);
    const std::uint64_t q1 = rng.uniform(kUniverse);
    const std::uint64_t q2 = q1 + rng.uniform(kUniverse - q1 + 1);
    bool all = true;
    bool any = false;
    for (std::uint64_t i = q1; i < q2; ++i) {
      all = all && ref[i];
      any = any || ref[i];
    }
    if (q1 == q2) {
      all = true;
      any = false;
    }
    ASSERT_EQ(rs.contains(q1, q2), all) << "q=[" << q1 << "," << q2 << ")";
    ASSERT_EQ(rs.intersects(q1, q2), any);
    // Pieces are disjoint, sorted, coalesced.
    const auto pieces = rs.to_vector();
    for (std::size_t i = 1; i < pieces.size(); ++i) {
      ASSERT_GT(pieces[i].begin, pieces[i - 1].end);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 99, 1234));

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(7);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, Uniform01InUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(DigestTest, KnownFnvVector) {
  // FNV-1a("a") = 0xaf63dc4c8601ec8c
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cULL);
}

TEST(DigestTest, OrderSensitive) {
  EXPECT_NE(fnv1a(std::string_view("ab")), fnv1a(std::string_view("ba")));
}

std::uint64_t xxh64_of(std::string_view text, std::uint64_t seed = 0) {
  return xxh64(std::as_bytes(std::span(text.data(), text.size())), seed);
}

/// xxhsum's sanity buffer: byte i is the top byte of 2654435761 * P^i,
/// P = 11400714785074694797 (mod 2^64).
constexpr std::uint64_t kSanitySeed = 2654435761ULL;

std::vector<std::byte> sanity_buffer(std::size_t n) {
  std::vector<std::byte> out(n);
  std::uint64_t gen = kSanitySeed;
  for (std::byte& b : out) {
    b = static_cast<std::byte>(gen >> 56);
    gen *= 11400714785074694797ULL;
  }
  return out;
}

/// XXH64 as the specification states it, one input byte at a time: lanes
/// are assembled from little-endian bytes, and the stripe loop runs while a
/// whole stripe remains. The word-at-a-time xxh64 must match it.
std::uint64_t xxh64_reference(std::span<const std::byte> in,
                              std::uint64_t seed) {
  const auto lane = [&in](std::size_t at, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t k = width; k-- > 0;) {
      v = (v << 8) | std::to_integer<std::uint64_t>(in[at + k]);
    }
    return v;
  };
  const auto round = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kXxhPrime2, 31) * kXxhPrime1;
  };
  std::size_t at = 0;
  std::uint64_t h = seed + kXxhPrime5;
  if (in.size() >= 32) {
    std::uint64_t acc[4] = {seed + kXxhPrime1 + kXxhPrime2,
                            seed + kXxhPrime2, seed, seed - kXxhPrime1};
    while (in.size() - at >= 32) {
      for (int k = 0; k < 4; ++k) acc[k] = round(acc[k], lane(at + 8 * k, 8));
      at += 32;
    }
    h = std::rotl(acc[0], 1) + std::rotl(acc[1], 7) + std::rotl(acc[2], 12) +
        std::rotl(acc[3], 18);
    for (const std::uint64_t a : acc) {
      h = (h ^ round(0, a)) * kXxhPrime1 + kXxhPrime4;
    }
  }
  h += in.size();
  while (in.size() - at >= 8) {
    h = std::rotl(h ^ round(0, lane(at, 8)), 27) * kXxhPrime1 + kXxhPrime4;
    at += 8;
  }
  if (in.size() - at >= 4) {
    h = std::rotl(h ^ (lane(at, 4) * kXxhPrime1), 23) * kXxhPrime2 +
        kXxhPrime3;
    at += 4;
  }
  while (at < in.size()) {
    h = std::rotl(h ^ (lane(at, 1) * kXxhPrime5), 11) * kXxhPrime1;
    ++at;
  }
  h = (h ^ (h >> 33)) * kXxhPrime2;
  h = (h ^ (h >> 29)) * kXxhPrime3;
  return h ^ (h >> 32);
}

// Published XXH64 vectors. The lengths reach every branch: the 32-byte
// stripe loop (62, 80 and 222 bytes), the 8-byte, 4-byte and 1-byte tails,
// and a nonzero seed.
TEST(DigestTest, Xxh64MatchesPublishedVectors) {
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64_of("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64_of("message digest"), 0x066ED728FCEEB3BEULL);
  EXPECT_EQ(xxh64_of("abcdefghijklmnopqrstuvwxyz"), 0xCFE1F278FA89835CULL);
  EXPECT_EQ(xxh64_of("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                     "0123456789"),
            0xAAA46907D3047814ULL);
  EXPECT_EQ(xxh64_of("1234567890123456789012345678901234567890"
                     "1234567890123456789012345678901234567890"),
            0xE04A477F19EE145DULL);
  const std::vector<std::byte> sanity = sanity_buffer(222);
  EXPECT_EQ(xxh64(sanity), 0xB641AE8CB691C174ULL);
  EXPECT_EQ(xxh64(sanity, kSanitySeed), 0x20CB8AB7AE10C14AULL);
  EXPECT_EQ(xxh64(std::span(sanity).first(14), kSanitySeed),
            0xC3BD6BF63DEB6DF0ULL);
  EXPECT_EQ(xxh64_reference(sanity, kSanitySeed), 0x20CB8AB7AE10C14AULL);
}

TEST(DigestTest, Xxh64MatchesByteSerialReferenceAtEveryLength) {
  const std::vector<std::byte> sanity = sanity_buffer(300);
  for (std::size_t n = 0; n <= sanity.size(); ++n) {
    const auto in = std::span(sanity).first(n);
    for (const std::uint64_t seed : {std::uint64_t{0}, kSanitySeed}) {
      ASSERT_EQ(xxh64(in, seed), xxh64_reference(in, seed))
          << "length " << n << " seed " << seed;
    }
  }
}

// The incremental state fed any split of an input equals the one-shot
// xxh64() of the whole input: two pieces at every offset for every length
// up to 300, and three pieces at every pair of cuts up to 100 bytes, where
// a stripe can straddle two cuts.
TEST(DigestTest, Xxh64StreamMatchesOneShotAtEverySplit) {
  const std::vector<std::byte> sanity = sanity_buffer(300);
  for (const std::uint64_t seed : {std::uint64_t{0}, kSanitySeed}) {
    for (std::size_t n = 0; n <= sanity.size(); ++n) {
      const auto in = std::span(sanity).first(n);
      const std::uint64_t whole = xxh64(in, seed);
      for (std::size_t cut = 0; cut <= n; ++cut) {
        Xxh64 stream(seed);
        stream.update(in.first(cut));
        stream.update(in.subspan(cut));
        ASSERT_EQ(stream.digest(), whole)
            << "length " << n << " cut " << cut << " seed " << seed;
      }
      if (n > 100) continue;
      for (std::size_t a = 0; a <= n; ++a) {
        for (std::size_t b = a; b <= n; ++b) {
          Xxh64 stream(seed);
          stream.update(in.first(a));
          stream.update(in.subspan(a, b - a));
          stream.update(in.subspan(b));
          ASSERT_EQ(stream.digest(), whole) << "length " << n << " cuts " << a
                                            << ", " << b << " seed " << seed;
        }
      }
    }
  }
}

TEST(BufferDigestTest, EveryShortLengthDigestsDeterministicallyAndDistinctly) {
  const Buffer source = Buffer::pattern(100, 42);
  std::set<std::uint64_t> seen;
  for (std::size_t n = 0; n <= 100; ++n) {
    const std::uint64_t d = source.slice(0, n).digest();
    EXPECT_EQ(d, source.slice(0, n).digest()) << "length " << n;
    seen.insert(d);
  }
  EXPECT_EQ(seen.size(), 101u);
}

TEST(BufferDigestTest, PurePhantomKeepsLengthFormula) {
  EXPECT_EQ(Buffer::phantom(500).digest(), mix64(0x941707011ULL ^ 500));
  EXPECT_NE(Buffer::phantom(500).digest(), Buffer::phantom(501).digest());
}

TEST(BufferDigestTest, MovingThePhantomPartChangesTheDigest) {
  const Buffer head = Buffer::pattern(64, 1);
  const Buffer tail = Buffer::pattern(64, 2);
  Buffer middle = head;
  middle.append(Buffer::phantom(32));
  middle.append(tail);
  Buffer last = head;
  last.append(tail);
  last.append(Buffer::phantom(32));
  Buffer first = Buffer::phantom(32);
  first.append(head);
  first.append(tail);
  EXPECT_NE(middle.digest(), last.digest());
  EXPECT_NE(middle.digest(), first.digest());
  EXPECT_NE(last.digest(), first.digest());
}

TEST(StrutilTest, Strf) {
  EXPECT_EQ(strf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(StrutilTest, HumanBytes) {
  EXPECT_EQ(human_bytes(500), "500 B");
  EXPECT_EQ(human_bytes(1500), "1.50 KB");
  EXPECT_EQ(human_bytes(52 * kMB), "52.00 MB");
  EXPECT_EQ(human_bytes(2'000'000'000ULL), "2.00 GB");
}

TEST(StrutilTest, Split) {
  const auto parts = split("a/b//c", '/');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(kib(4), 4096u);
  EXPECT_EQ(mb(50), 50'000'000u);
  EXPECT_EQ(mib(2), 2u * 1024 * 1024);
  EXPECT_DOUBLE_EQ(mb_per_s(117.5), 117.5e6);
}

}  // namespace
}  // namespace blobcr::common
