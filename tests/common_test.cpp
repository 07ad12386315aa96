// Unit + property tests for common: Buffer, RangeSet, Rng, digests, strutil.
#include <gtest/gtest.h>

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
