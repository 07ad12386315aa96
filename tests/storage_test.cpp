// Tests for the seek-aware disk model and the append-log chunk store.
#include <gtest/gtest.h>

#include <vector>

#include "common/buffer.h"
#include "sim/sim.h"
#include "storage/chunk_store.h"
#include "storage/disk.h"

namespace blobcr::storage {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;
using sim::Time;
using sim::to_seconds;

Disk::Config test_cfg(double bw = 100.0, sim::Duration pos = sim::seconds(1)) {
  Disk::Config cfg;
  cfg.bandwidth_bps = bw;
  cfg.position_cost = pos;
  return cfg;
}

Task<> sequential_writes(Simulation& s, Disk& d, int n, std::uint64_t each,
                         std::vector<Time>& done) {
  for (int i = 0; i < n; ++i) {
    co_await d.append(/*stream=*/1, each);
  }
  done.push_back(s.now());
}

TEST(DiskTest, SequentialAppendPaysOneSeek) {
  Simulation s;
  Disk d(s, test_cfg());
  std::vector<Time> done;
  s.spawn("w", sequential_writes(s, d, 10, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // First op seeks (100 bytes worth), then 10*100 bytes stream: 11 s.
  EXPECT_NEAR(to_seconds(done[0]), 11.0, 1e-6);
  EXPECT_EQ(d.seeks(), 1u);
}

Task<> alternating_streams(Simulation& s, Disk& d, int n, std::uint64_t each,
                           std::vector<Time>& done) {
  for (int i = 0; i < n; ++i) {
    co_await d.append(/*stream=*/static_cast<std::uint64_t>(1 + (i % 2)),
                      each);
  }
  done.push_back(s.now());
}

TEST(DiskTest, InterleavedStreamsPaySeeks) {
  Simulation s;
  Disk d(s, test_cfg());
  std::vector<Time> done;
  s.spawn("w", alternating_streams(s, d, 10, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // Every op seeks: 10 * (100 seek bytes + 100 data bytes) = 20 s.
  EXPECT_NEAR(to_seconds(done[0]), 20.0, 1e-6);
  EXPECT_EQ(d.seeks(), 10u);
}

Task<> read_at(Simulation& s, Disk& d, std::uint64_t stream,
               std::uint64_t off, std::uint64_t bytes, std::vector<Time>& done) {
  co_await d.read(stream, off, bytes);
  done.push_back(s.now());
}

TEST(DiskTest, RandomReadsEachPaySeek) {
  Simulation s;
  Disk d(s, test_cfg());
  std::vector<Time> done;
  s.spawn("r1", read_at(s, d, 1, 5000, 100, done));
  s.spawn("r2", read_at(s, d, 1, 0, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Two 100-byte reads, each charged a 100-byte seek, sharing 100 B/s.
  EXPECT_NEAR(to_seconds(done[0]), 4.0, 1e-3);
  EXPECT_NEAR(to_seconds(done[1]), 4.0, 1e-3);
  EXPECT_EQ(d.seeks(), 2u);
}

TEST(DiskTest, SequentialReadAfterWriteIsCheap) {
  Simulation s;
  Disk d(s, test_cfg());
  std::vector<Time> done;
  s.spawn("rw", [](Simulation& sm, Disk& dk, std::vector<Time>& dn) -> Task<> {
    co_await dk.write(1, 0, 100);
    // Read continues where the write head stopped: sequential.
    co_await dk.read(1, 100, 100);
    dn.push_back(sm.now());
  }(s, d, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // seek + 100 + 100 bytes = 3 s.
  EXPECT_NEAR(to_seconds(done[0]), 3.0, 1e-6);
}

TEST(DiskTest, TracksReadWriteBytes) {
  Simulation s;
  Disk d(s, test_cfg());
  std::vector<Time> done;
  s.spawn("w", sequential_writes(s, d, 3, 50, done));
  s.run();
  EXPECT_EQ(d.bytes_written(), 150u);
  EXPECT_EQ(d.bytes_read(), 0u);
}

Task<> store_chunks(Simulation& s, ChunkStore& cs, int n, std::size_t size,
                    std::vector<Time>& done) {
  for (int i = 0; i < n; ++i) {
    co_await cs.put(static_cast<std::uint64_t>(i),
                    Buffer::pattern(size, static_cast<std::uint64_t>(i)));
  }
  done.push_back(s.now());
}

TEST(ChunkStoreTest, PutGetRoundTrip) {
  Simulation s;
  Disk d(s, test_cfg(1e9, 0));
  ChunkStore cs(d, /*stream=*/7);
  std::vector<Time> done;
  bool ok = false;
  s.spawn("w", [](Simulation&, ChunkStore& st, bool& result) -> Task<> {
    co_await st.put(1, Buffer::pattern(1000, 5));
    const Buffer b = co_await st.get(1);
    result = (b == Buffer::pattern(1000, 5));
  }(s, cs, ok));
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cs.stored_bytes(), 1000u);
  EXPECT_EQ(cs.chunk_count(), 1u);
}

TEST(ChunkStoreTest, AppendLogStaysSequential) {
  Simulation s;
  Disk d(s, test_cfg());
  ChunkStore cs(d, /*stream=*/7);
  std::vector<Time> done;
  s.spawn("w", store_chunks(s, cs, 10, 100, done));
  s.run();
  // Chunk puts are appends to one log: a single initial seek.
  EXPECT_EQ(d.seeks(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 11.0, 1e-6);
}

TEST(ChunkStoreTest, EraseReclaimsSpace) {
  Simulation s;
  Disk d(s, test_cfg(1e9, 0));
  ChunkStore cs(d, 7);
  std::vector<Time> done;
  s.spawn("w", store_chunks(s, cs, 4, 100, done));
  s.run();
  EXPECT_EQ(cs.stored_bytes(), 400u);
  EXPECT_TRUE(cs.erase(2));
  EXPECT_FALSE(cs.erase(2));
  EXPECT_EQ(cs.stored_bytes(), 300u);
  EXPECT_FALSE(cs.has(2));
  EXPECT_TRUE(cs.has(3));
}

TEST(ChunkStoreTest, MissingChunkThrows) {
  Simulation s;
  Disk d(s, test_cfg(1e9, 0));
  ChunkStore cs(d, 7);
  bool threw = false;
  s.spawn("r", [](ChunkStore& st, bool& result) -> Task<> {
    try {
      (void)co_await st.get(99);
    } catch (const std::out_of_range&) {
      result = true;
    }
  }(cs, threw));
  s.run();
  EXPECT_TRUE(threw);
}

TEST(ChunkStoreTest, PhantomChunksAccountSizeOnly) {
  Simulation s;
  Disk d(s, test_cfg(1e9, 0));
  ChunkStore cs(d, 7);
  bool ok = false;
  s.spawn("w", [](ChunkStore& st, bool& result) -> Task<> {
    co_await st.put(1, Buffer::phantom(4096));
    const Buffer b = co_await st.get(1);
    result = b.is_phantom() && b.size() == 4096;
  }(cs, ok));
  s.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(cs.stored_bytes(), 4096u);
}

}  // namespace
}  // namespace blobcr::storage
