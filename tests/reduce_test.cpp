// Tests for the snapshot data-reduction subsystem: zero suppression,
// content-addressed dedup (across clients/"ranks", across versions, within
// one commit), compression (RLE + phantom ratio model), GC refcounting of
// shared chunks and digest-index invalidation after reclaim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/store.h"
#include "reduce/reducer.h"
#include "reduce/rle.h"
#include "sim/sim.h"

namespace blobcr::reduce {
namespace {

using blob::BlobClient;
using blob::BlobId;
using blob::BlobStore;
using blob::GarbageCollector;
using blob::VersionId;
using common::Buffer;
using sim::Simulation;
using sim::Task;

constexpr std::uint64_t kChunk = 1024;

/// A small in-memory cluster hosting one BlobStore (mirrors blob_test).
struct TestCluster {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<BlobStore> store;
  net::NodeId client_node = 0;

  explicit TestCluster(std::size_t n_data = 4, int replication = 1,
                       double disk_bps = 1e9) {
    const std::size_t n_meta = 2;
    const std::size_t total = 2 + n_meta + n_data + 1;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);

    BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    for (std::size_t i = 0; i < n_meta; ++i) {
      cfg.metadata_nodes.push_back(static_cast<net::NodeId>(2 + i));
    }
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = disk_bps;
    dcfg.position_cost = sim::kMillisecond;
    for (std::size_t i = 0; i < n_data; ++i) {
      const net::NodeId node = static_cast<net::NodeId>(2 + n_meta + i);
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
      cfg.data_providers.push_back({node, disks.back().get(), 1});
    }
    cfg.default_chunk_size = kChunk;
    cfg.tree_depth = 10;
    cfg.replication = replication;
    store = std::make_unique<BlobStore>(sim, *fabric, cfg);
    client_node = static_cast<net::NodeId>(total - 1);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

ReductionConfig all_on() {
  ReductionConfig cfg;
  cfg.enabled = true;
  cfg.zero_suppression = true;
  cfg.dedup = true;
  cfg.compression = false;
  return cfg;
}

/// One GC epoch that drops `blob`'s versions below `keep_from`.
Task<GarbageCollector::Result> collect(BlobStore& store, BlobId blob,
                                       VersionId keep_from) {
  GarbageCollector gc(store);
  std::vector<GarbageCollector::Drop> drops{{blob, keep_from}};
  co_return co_await gc.collect(std::move(drops));
}

/// Commits `data` at `offset` through the reduction pipeline, awaiting
/// `probe` (when set) at every commit stage boundary.
Task<VersionId> write_reduced(BlobClient& client, Reducer& red, BlobId blob,
                              std::uint64_t offset, Buffer data,
                              blob::CommitProbe* probe = nullptr) {
  std::vector<BlobClient::ExtentSpec> specs;
  specs.push_back({offset, data.size()});
  const Buffer* owned = &data;
  BlobClient::ExtentReader reader =
      [owned, offset](std::uint64_t off,
                      std::uint64_t len) -> Task<Buffer> {
    co_return owned->slice(off - offset, len);
  };
  co_return co_await client.write_extents_via(
      blob, std::move(specs), &reader, {.reducer = &red, .probe = probe});
}

TEST(ReduceTest, ZeroSuppressionRoundTrip) {
  TestCluster tc;
  Reducer red({tc.store.get()}, all_on());
  Buffer data = Buffer::pattern(kChunk, 7);
  data.append(Buffer::zeros(2 * kChunk));
  data.append(Buffer::pattern(kChunk, 8));
  bool ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* data,
            bool* ok) -> Task<> {
    BlobClient client(*tc->store, tc->client_node);
    const BlobId blob = co_await client.create();
    const VersionId v =
        co_await write_reduced(client, *red, blob, 0, *data);
    const Buffer back = co_await client.read(blob, v, 0, data->size());
    *ok = (back == *data);
  }(&tc, &red, &data, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(red.stats().zero_chunks, 2u);
  EXPECT_EQ(red.stats().zero_bytes, 2 * kChunk);
  EXPECT_EQ(red.stats().raw_bytes, 4 * kChunk);
  EXPECT_EQ(red.stats().shipped_bytes, 2 * kChunk);
  // Only the two non-zero chunks consumed repository space.
  EXPECT_EQ(tc.store->total_stored_bytes(), 2 * kChunk);
}

TEST(ReduceTest, DedupAcrossRanksAndVersions) {
  TestCluster tc;
  Reducer red({tc.store.get()}, all_on());
  const Buffer content = Buffer::pattern(4 * kChunk, 99);
  bool rank_b_ok = false;
  bool v2_ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* content,
            bool* rank_b_ok, bool* v2_ok) -> Task<> {
    // Two clients stand in for two ranks of one deployment sharing the
    // deployment-scoped reducer.
    BlobClient rank_a(*tc->store, tc->client_node);
    BlobClient rank_b(*tc->store, tc->client_node);
    const BlobId blob_a = co_await rank_a.create();
    const BlobId blob_b = co_await rank_b.create();

    const VersionId a1 =
        co_await write_reduced(rank_a, *red, blob_a, 0, *content);
    EXPECT_EQ(red->stats().dedup_hits, 0u);
    const std::uint64_t stored_after_a = tc->store->total_stored_bytes();

    // Rank B ships identical content: every chunk is a cross-rank hit.
    red->begin_epoch();
    const VersionId b1 =
        co_await write_reduced(rank_b, *red, blob_b, 0, *content);
    EXPECT_EQ(red->stats().dedup_hits, 4u);
    EXPECT_EQ(red->epoch_stats().dedup_hits, 4u);
    EXPECT_EQ(tc->store->total_stored_bytes(), stored_after_a);
    const Buffer back_b = co_await rank_b.read(blob_b, b1, 0, content->size());
    *rank_b_ok = (back_b == *content);

    // Rank A re-commits the same content as a new version: cross-version
    // hits, and v1 stays readable (shadowing).
    const VersionId a2 =
        co_await write_reduced(rank_a, *red, blob_a, 0, *content);
    EXPECT_EQ(red->stats().dedup_hits, 8u);
    EXPECT_EQ(tc->store->total_stored_bytes(), stored_after_a);
    const Buffer back_a1 = co_await rank_a.read(blob_a, a1, 0, content->size());
    const Buffer back_a2 = co_await rank_a.read(blob_a, a2, 0, content->size());
    *v2_ok = (back_a1 == *content) && (back_a2 == *content);
  }(&tc, &red, &content, &rank_b_ok, &v2_ok));
  EXPECT_TRUE(rank_b_ok);
  EXPECT_TRUE(v2_ok);
  EXPECT_EQ(red.stats().dedup_bytes, 8 * kChunk);
}

TEST(ReduceTest, IntraCommitDedup) {
  TestCluster tc;
  Reducer red({tc.store.get()}, all_on());
  // One commit whose four chunks are identical.
  const Buffer one = Buffer::pattern(kChunk, 5);
  Buffer data = one;
  for (int i = 0; i < 3; ++i) data.append(one);
  bool ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* data,
            bool* ok) -> Task<> {
    BlobClient client(*tc->store, tc->client_node);
    const BlobId blob = co_await client.create();
    const VersionId v = co_await write_reduced(client, *red, blob, 0, *data);
    const Buffer back = co_await client.read(blob, v, 0, data->size());
    *ok = (back == *data);
  }(&tc, &red, &data, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(red.stats().dedup_hits, 3u);
  EXPECT_EQ(red.stats().shipped_bytes, kChunk);
  EXPECT_EQ(tc.store->total_stored_bytes(), kChunk);
}

TEST(ReduceTest, GcRefcountsSharedChunksAndInvalidatesIndex) {
  TestCluster tc;
  Reducer red({tc.store.get()}, all_on());
  const Buffer shared = Buffer::pattern(2 * kChunk, 11);
  const Buffer other = Buffer::pattern(2 * kChunk, 12);
  bool b_after_gc_ok = false;
  bool rewrite_ok = false;
  BlobId blob_a = 0;
  BlobId blob_b = 0;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* shared,
            const Buffer* other, BlobId* pa, BlobId* pb,
            bool* b_after_gc_ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    BlobClient b(*tc->store, tc->client_node);
    *pa = co_await a.create();
    *pb = co_await b.create();
    // A v1 stores the shared content; B's leaves dedup onto A's chunks.
    (void)co_await write_reduced(a, *red, *pa, 0, *shared);
    (void)co_await write_reduced(b, *red, *pb, 0, *shared);
    EXPECT_EQ(red->stats().dedup_hits, 2u);
    // A v2 replaces the content, obsoleting A v1.
    (void)co_await write_reduced(a, *red, *pa, 0, *other);

    // Drop A v1. Its chunks are still referenced by B v1, so the sweep
    // must keep them.
    const GarbageCollector::Result r =
        co_await collect(*tc->store, *pa, 2);
    EXPECT_EQ(r.chunks_deleted, 0u);
    EXPECT_EQ(r.chunks_kept_shared, 2u);
    const Buffer back = co_await b.read(*pb, 1, 0, shared->size());
    *b_after_gc_ok = (back == *shared);
  }(&tc, &red, &shared, &other, &blob_a, &blob_b, &b_after_gc_ok));
  EXPECT_TRUE(b_after_gc_ok);

  // Now obsolete B v1 too; the shared chunks become unreachable and must
  // really go — and the digest index must forget them.
  const std::uint64_t stored_before = tc.store->total_stored_bytes();
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* shared,
            const Buffer* other, BlobId* pb, bool* rewrite_ok) -> Task<> {
    BlobClient b(*tc->store, tc->client_node);
    (void)co_await write_reduced(b, *red, *pb, 0, *other);
    const GarbageCollector::Result r =
        co_await collect(*tc->store, *pb, 2);
    EXPECT_EQ(r.chunks_deleted, 2u);
    EXPECT_EQ(r.reclaimed_bytes, 2 * kChunk);

    // Re-committing the shared content must MISS the index (its chunks are
    // gone) and store fresh copies that read back correctly.
    const std::uint64_t hits_before = red->stats().dedup_hits;
    BlobClient c(*tc->store, tc->client_node);
    const BlobId blob_c = co_await c.create();
    const VersionId vc =
        co_await write_reduced(c, *red, blob_c, 0, *shared);
    EXPECT_EQ(red->stats().dedup_hits, hits_before);
    const Buffer back = co_await c.read(blob_c, vc, 0, shared->size());
    *rewrite_ok = (back == *shared);
  }(&tc, &red, &shared, &other, &blob_b, &rewrite_ok));
  EXPECT_TRUE(rewrite_ok);
  // `other` committed for B, minus the reclaimed shared chunks, plus the
  // re-stored shared chunks.
  EXPECT_EQ(tc.store->total_stored_bytes(), stored_before);
}

TEST(ReduceTest, InFlightDedupRefPinsChunkAgainstGc) {
  // Slow provider disks widen the window between "dedup Ref taken" and
  // "version published": the unique chunk's store takes ~10 ms of
  // simulated time while the Refs are already pinned.
  TestCluster tc(4, 1, /*disk_bps=*/1e5);
  Reducer red({tc.store.get()}, all_on());
  const Buffer shared = Buffer::pattern(2 * kChunk, 31);
  const Buffer other = Buffer::pattern(2 * kChunk, 32);
  Buffer mixed = shared;
  mixed.append(Buffer::pattern(kChunk, 33));  // unique chunk: must store
  bool read_ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* shared,
            const Buffer* other, const Buffer* mixed,
            bool* read_ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    const BlobId blob_a = co_await a.create();
    (void)co_await write_reduced(a, *red, blob_a, 0, *shared);  // indexes
    (void)co_await write_reduced(a, *red, blob_a, 0, *other);   // obsoletes v1

    // Start a commit that dedups onto A v1's chunks, and run the GC while
    // that commit is still in flight (its version not yet published). The
    // pins must keep the chunks alive even though no published tree
    // references them outside the droppable A v1.
    BlobClient b(*tc->store, tc->client_node);
    const BlobId blob_b = co_await b.create();
    auto commit = tc->sim.spawn(
        "commit", [](BlobClient* b, Reducer* red, BlobId blob,
                     const Buffer* data) -> Task<> {
          (void)co_await write_reduced(*b, *red, blob, 0, *data);
        }(&b, red, blob_b, mixed));
    co_await tc->sim.delay(5 * sim::kMillisecond);  // mid-commit
    EXPECT_FALSE(commit->finished());
    const GarbageCollector::Result r =
        co_await collect(*tc->store, blob_a, 2);
    EXPECT_EQ(r.chunks_deleted, 0u);
    EXPECT_EQ(r.chunks_kept_shared, 2u);

    co_await commit->join();
    const Buffer back = co_await b.read(blob_b, 1, 0, mixed->size());
    *read_ok = (back == *mixed);

    // Once the commit published, its version's tree holds the references;
    // the pins are released and a later GC still keeps the chunks because
    // they are reachable from blob B.
    const GarbageCollector::Result r2 =
        co_await collect(*tc->store, blob_a, 2);
    EXPECT_EQ(r2.chunks_deleted, 0u);
  }(&tc, &red, &shared, &other, &mixed, &read_ok));
  EXPECT_TRUE(read_ok);
}

TEST(ReduceTest, PinsHeldThroughMetadataPublish) {
  // A commit made entirely of dedup Refs does all its payload work in the
  // reduce phase; after that, only the metadata co_awaits (put_nodes,
  // publish) remain. The Ref pins must span those suspensions too: a GC
  // running there sees the chunks in no published tree, so without the pins
  // it would reclaim them under the about-to-publish version. The GC runs
  // from the commit's PrePublish probe: after put_nodes, before publish.
  TestCluster tc;
  Reducer red({tc.store.get()}, all_on());
  const Buffer shared = Buffer::pattern(2 * kChunk, 41);
  const Buffer other = Buffer::pattern(2 * kChunk, 42);
  bool read_ok = false;
  bool gc_ran = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* shared,
            const Buffer* other, bool* read_ok, bool* gc_ran) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    const BlobId blob_a = co_await a.create();
    (void)co_await write_reduced(a, *red, blob_a, 0, *shared);  // indexes
    (void)co_await write_reduced(a, *red, blob_a, 0, *other);   // obsoletes v1

    BlobClient b(*tc->store, tc->client_node);
    const BlobId blob_b = co_await b.create();
    blob::CommitProbe probe =
        [tc, blob_a, gc_ran](blob::CommitStage s) -> Task<> {
      if (s != blob::CommitStage::PrePublish) co_return;
      const GarbageCollector::Result r =
          co_await collect(*tc->store, blob_a, 2);
      EXPECT_EQ(r.chunks_deleted, 0u);
      EXPECT_EQ(r.chunks_kept_shared, 2u);
      *gc_ran = true;
    };
    (void)co_await write_reduced(b, *red, blob_b, 0, *shared, &probe);
    const Buffer back = co_await b.read(blob_b, 1, 0, shared->size());
    *read_ok = (back == *shared);
  }(&tc, &red, &shared, &other, &read_ok, &gc_ran));
  EXPECT_TRUE(gc_ran);
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(red.stats().dedup_hits, 2u);
}

TEST(ReduceTest, FailedCommitWithdrawsIndexedDigests) {
  // Two large chunks land on the two providers; one provider fails while
  // both transfers are in flight. The surviving chunk stores, enters the
  // dedup index (record()), and then the commit as a whole throws —
  // its version never publishes, so the orphan chunk must leave the index
  // again (a dedup Ref onto it could never be reclaimed by the GC).
  TestCluster tc(/*n_data=*/2, /*replication=*/1);
  Reducer red({tc.store.get()}, all_on());
  constexpr std::uint64_t kBig = 1 << 20;
  const Buffer data = Buffer::pattern(2 * kBig, 51);
  bool threw = false;
  bool rewrite_ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* data, bool* threw,
            bool* rewrite_ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    const BlobId blob_a = co_await a.create(kBig);
    auto commit = tc->sim.spawn(
        "commit", [](BlobClient* a, Reducer* red, BlobId blob,
                     const Buffer* data) -> Task<> {
          (void)co_await write_reduced(*a, *red, blob, 0, *data);
        }(&a, red, blob_a, data));
    // ~0.55 ms: placement done (both providers picked); ~2.7 ms: transfers
    // complete. Failing in between makes exactly one store throw while the
    // other runs to completion and indexes its chunk.
    co_await tc->sim.delay(sim::kMillisecond);
    tc->store->fail_node(tc->store->config().data_providers[1].node);
    co_await commit->join();
    *threw = (commit->error() != nullptr);
    EXPECT_EQ(red->index().size(), 0u);  // orphan withdrawn

    // The same content re-commits cleanly (placement avoids the dead
    // provider), misses the index, and reads back bit-identical.
    const std::uint64_t hits_before = red->stats().dedup_hits;
    BlobClient b(*tc->store, tc->client_node);
    const BlobId blob_b = co_await b.create(kBig);
    const VersionId v = co_await write_reduced(b, *red, blob_b, 0, *data);
    EXPECT_EQ(red->stats().dedup_hits, hits_before);
    const Buffer back = co_await b.read(blob_b, v, 0, data->size());
    *rewrite_ok = (back == *data);
  }(&tc, &red, &data, &threw, &rewrite_ok));
  EXPECT_TRUE(threw);
  EXPECT_TRUE(rewrite_ok);
}

TEST(ReduceTest, RleCompressionRoundTrip) {
  TestCluster tc;
  ReductionConfig cfg;
  cfg.enabled = true;
  cfg.zero_suppression = false;
  cfg.dedup = false;
  cfg.compression = true;
  Reducer red({tc.store.get()}, cfg);
  // Chunk 1: highly compressible runs (but not all zeros). Chunk 2: random.
  std::vector<std::byte> runs(kChunk, std::byte{0xAB});
  for (std::size_t i = 0; i < runs.size(); i += 97) runs[i] = std::byte{0x12};
  Buffer data = Buffer::real(std::move(runs));
  data.append(Buffer::pattern(kChunk, 3));
  bool ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* data,
            bool* ok) -> Task<> {
    BlobClient client(*tc->store, tc->client_node);
    const BlobId blob = co_await client.create();
    const VersionId v = co_await write_reduced(client, *red, blob, 0, *data);
    const Buffer back = co_await client.read(blob, v, 0, data->size());
    *ok = (back == *data);
  }(&tc, &red, &data, &ok));
  EXPECT_TRUE(ok);
  // The run chunk compressed; the random chunk shipped raw (RLE would have
  // expanded it, so the pipeline kept the original).
  EXPECT_EQ(red.stats().compressed_chunks, 1u);
  EXPECT_GT(red.stats().compress_saved_bytes, 0u);
  EXPECT_LT(red.stats().shipped_bytes, 2 * kChunk);
  EXPECT_GE(red.stats().shipped_bytes, kChunk);
  EXPECT_EQ(tc.store->total_stored_bytes(), red.stats().shipped_bytes);
}

TEST(ReduceTest, PhantomRatioCompression) {
  TestCluster tc;
  ReductionConfig cfg;
  cfg.enabled = true;
  cfg.zero_suppression = true;
  cfg.dedup = true;  // must NOT dedup phantom payloads
  cfg.compression = true;
  Reducer red({tc.store.get()}, cfg);
  const Buffer data = Buffer::phantom(4 * kChunk);
  std::uint64_t back_digest = 0;
  std::uint64_t back_size = 0;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* data,
            std::uint64_t* back_digest, std::uint64_t* back_size) -> Task<> {
    BlobClient client(*tc->store, tc->client_node);
    const BlobId blob = co_await client.create();
    const VersionId v = co_await write_reduced(client, *red, blob, 0, *data);
    const Buffer back = co_await client.read(blob, v, 0, data->size());
    *back_digest = back.digest();
    *back_size = back.size();
  }(&tc, &red, &data, &back_digest, &back_size));
  // Identical same-length phantom chunks must not pretend to dedup or be
  // zero-suppressed — their content is unknowable.
  EXPECT_EQ(red.stats().dedup_hits, 0u);
  EXPECT_EQ(red.stats().zero_chunks, 0u);
  EXPECT_EQ(red.stats().compressed_chunks, 4u);
  // The ratio model stores 60% of each phantom chunk, rounded up.
  const auto stored = static_cast<std::uint64_t>(std::ceil(0.6 * kChunk));
  EXPECT_EQ(red.stats().shipped_bytes, 4 * stored);
  EXPECT_EQ(tc.store->total_stored_bytes(), 4 * stored);
  // Round trip preserves the logical payload identity.
  EXPECT_EQ(back_size, 4 * kChunk);
  EXPECT_EQ(back_digest, data.digest());
}

TEST(ReduceTest, DigestIndexKeepsFallbackLocations) {
  // Concurrent commits can store identical content twice; withdrawing one
  // copy (failed commit, GC reclaim) must keep the content indexed via the
  // other, and withdrawing both must empty the entry.
  ChunkDigestIndex idx;
  blob::ChunkLocation a;
  a.id = 10;
  a.size = 64;
  blob::ChunkLocation b = a;
  b.id = 11;
  idx.record(7, 64, a);
  idx.record(7, 64, b);
  EXPECT_EQ(idx.size(), 1u);
  ASSERT_NE(idx.lookup(7, 64), nullptr);
  EXPECT_EQ(idx.lookup(7, 64)->id, 10u);

  idx.forget_chunks({10});
  ASSERT_NE(idx.lookup(7, 64), nullptr);
  EXPECT_EQ(idx.lookup(7, 64)->id, 11u);

  idx.forget_chunks({11});
  EXPECT_EQ(idx.lookup(7, 64), nullptr);
  EXPECT_EQ(idx.size(), 0u);
}

TEST(ReduceTest, RleCodecProperty) {
  common::Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.next_u64() % 4096);
    std::vector<std::byte> in(n);
    // Mix runs and noise so both token kinds are exercised.
    std::size_t i = 0;
    while (i < n) {
      const bool run = (rng.next_u64() % 2) == 0;
      const std::size_t len =
          std::min(n - i, 1 + static_cast<std::size_t>(rng.next_u64() % 300));
      const std::byte v = static_cast<std::byte>(rng.next_u64() & 0xff);
      for (std::size_t k = 0; k < len; ++k) {
        in[i + k] = run ? v : static_cast<std::byte>(rng.next_u64() & 0xff);
      }
      i += len;
    }
    const std::vector<std::byte> enc = rle_encode(in);
    const std::vector<std::byte> dec = rle_decode(enc, in.size());
    ASSERT_EQ(dec, in);
  }
}

/// The byte-serial encoder rle_encode replaced, kept as its reference: the
/// tokens must match byte for byte, not merely decode, because scavenge
/// re-encodes recovered chunks and stores them under their recorded size.
std::vector<std::byte> rle_encode_reference(std::span<const std::byte> in) {
  std::vector<std::byte> out;
  std::size_t i = 0;
  std::size_t literal_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    std::size_t at = literal_start;
    while (at < end) {
      const std::size_t n = std::min(kRleMaxLiteral, end - at);
      out.push_back(static_cast<std::byte>(n - 1));
      out.insert(out.end(), in.begin() + static_cast<std::ptrdiff_t>(at),
                 in.begin() + static_cast<std::ptrdiff_t>(at + n));
      at += n;
    }
  };
  while (i < in.size()) {
    std::size_t run = 1;
    while (i + run < in.size() && in[i + run] == in[i] && run < kRleMaxRun) {
      ++run;
    }
    if (run >= kRleMinRun) {
      flush_literals(i);
      out.push_back(static_cast<std::byte>(0x80 + (run - kRleMinRun)));
      out.push_back(in[i]);
      i += run;
      literal_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(in.size());
  return out;
}

/// Builds encoder inputs piece by piece. Adjacent pieces never share a byte
/// value at their seam, so each piece keeps exactly its intended shape.
struct RleInput {
  common::Rng rng;
  std::vector<std::byte> bytes;

  explicit RleInput(std::uint64_t seed) : rng(seed) {}

  std::byte fresh() {
    auto b = static_cast<std::byte>(rng.next_u64() & 0xff);
    if (!bytes.empty() && b == bytes.back()) b ^= std::byte{0x5a};
    return b;
  }
  /// `n` bytes with no two equal neighbours: one literal token stream.
  RleInput& literal(std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) bytes.push_back(fresh());
    return *this;
  }
  RleInput& run(std::size_t n) {
    bytes.insert(bytes.end(), n, fresh());
    return *this;
  }
};

TEST(ReduceTest, RleEncoderMatchesByteSerialReference) {
  std::vector<std::vector<std::byte>> inputs;
  std::uint64_t seed = 1;
  // Literal lengths around the 128-byte token limit, each followed by runs
  // around the 3-byte minimum and the 130-byte cap.
  for (const std::size_t lit : {1, 2, 127, 128, 129, 256, 257}) {
    for (const std::size_t run : {2, 3, 4, 129, 130, 131, 132, 260, 261}) {
      inputs.push_back(RleInput(seed++).literal(lit).run(run).literal(lit).bytes);
      inputs.push_back(RleInput(seed++).run(run).literal(lit).run(run).bytes);
    }
  }
  // Tails of 0-10 bytes after a run and after a literal stretch, ending in
  // a literal or in a short run.
  for (std::size_t tail = 0; tail <= 10; ++tail) {
    inputs.push_back(RleInput(seed++).run(40).literal(tail).bytes);
    inputs.push_back(RleInput(seed++).literal(40).run(tail).bytes);
    inputs.push_back(RleInput(seed++).literal(37).run(5).literal(tail).bytes);
    inputs.push_back(RleInput(seed++).literal(tail).bytes);
    inputs.push_back(RleInput(seed++).run(tail).bytes);
  }
  // Runs starting and ending at every offset around 8-byte boundaries, and
  // inputs ending in a 2-byte repeat at every offset.
  for (std::size_t lead = 0; lead <= 17; ++lead) {
    for (std::size_t run = 2; run <= 20; ++run) {
      inputs.push_back(RleInput(seed++).literal(lead).run(run).literal(11).bytes);
    }
    inputs.push_back(RleInput(seed++).literal(lead + 8).run(2).bytes);
  }
  // Seeded mixes of runs and noise.
  common::Rng rng(4321);
  for (int trial = 0; trial < 200; ++trial) {
    RleInput in(seed++);
    const std::size_t n = 1 + rng.next_u64() % 2048;
    while (in.bytes.size() < n) {
      const std::size_t len = 1 + rng.next_u64() % 300;
      if (rng.next_u64() % 2 == 0) {
        in.run(len);
      } else {
        in.literal(len);
      }
    }
    inputs.push_back(std::move(in.bytes));
  }
  // Each input is encoded as the prefix of a buffer whose next 16 bytes
  // repeat its last byte, so a load past the end would find a run there.
  for (const std::vector<std::byte>& in : inputs) {
    std::vector<std::byte> padded = in;
    padded.insert(padded.end(), 16, in.empty() ? std::byte{0} : in.back());
    const std::vector<std::byte> enc =
        rle_encode(std::span(padded).first(in.size()));
    ASSERT_EQ(enc, rle_encode_reference(in))
        << "input of " << in.size() << " bytes";
    ASSERT_EQ(rle_decode(enc, in.size()), in);
  }
}

TEST(ReduceTest, ReplicatedDedupCountsOnce) {
  TestCluster tc(4, /*replication=*/2);
  Reducer red({tc.store.get()}, all_on());
  const Buffer content = Buffer::pattern(2 * kChunk, 21);
  bool ok = false;
  tc.run([](TestCluster* tc, Reducer* red, const Buffer* content,
            bool* ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    const BlobId blob_a = co_await a.create();
    (void)co_await a.write(blob_a, 0, *content);  // unreduced baseline
    const std::uint64_t unreduced = tc->store->total_stored_bytes();
    EXPECT_EQ(unreduced, 2 * (2 * kChunk));  // replication = 2

    BlobClient b(*tc->store, tc->client_node);
    const BlobId blob_b = co_await b.create();
    const VersionId v =
        co_await write_reduced(b, *red, blob_b, 0, *content);
    // The reducer has never seen this content (the unreduced path does not
    // index), so it stores once — at replication 2 — then dedups nothing.
    EXPECT_EQ(tc->store->total_stored_bytes(), 2 * unreduced);
    const VersionId v2 =
        co_await write_reduced(b, *red, blob_b, 0, *content);
    EXPECT_EQ(tc->store->total_stored_bytes(), 2 * unreduced);
    EXPECT_EQ(red->stats().dedup_hits, 2u);
    const Buffer r1 = co_await b.read(blob_b, v, 0, content->size());
    const Buffer r2 = co_await b.read(blob_b, v2, 0, content->size());
    *ok = (r1 == *content) && (r2 == *content);
  }(&tc, &red, &content, &ok));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace blobcr::reduce
