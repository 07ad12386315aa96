// Tests for the BlobSeer-style store: versioning (shadowing), cloning,
// replication/fail-over, load balancing, GC, and a property test against a
// reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/store.h"
#include "common/rng.h"
#include "sim/sim.h"

namespace blobcr::blob {
namespace {

using common::Buffer;
using common::Rng;
using sim::Simulation;
using sim::Task;

/// A small in-memory cluster hosting one BlobStore.
struct TestCluster {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<BlobStore> store;
  net::NodeId client_node = 0;

  explicit TestCluster(std::size_t n_data = 4, int replication = 1,
                       std::uint64_t chunk_size = 1024,
                       double nic_bps = 1e9, double disk_bps = 1e9) {
    const std::size_t n_meta = 2;
    const std::size_t total = 2 + n_meta + n_data + 1;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = nic_bps;
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
    cfg.default_chunk_size = chunk_size;
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

Task<> write_read_roundtrip(TestCluster& tc, bool& ok) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  const Buffer data = Buffer::pattern(5000, 77);
  const VersionId v = co_await client.write(blob, 0, data);
  const Buffer back = co_await client.read(blob, v, 0, 5000);
  ok = (back == data);
}

TEST(BlobTest, WriteReadRoundTrip) {
  TestCluster tc;
  bool ok = false;
  tc.run(write_read_roundtrip(tc, ok));
  EXPECT_TRUE(ok);
}

Task<> versions_are_snapshots(TestCluster& tc, bool& v1_ok, bool& v2_ok) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  const Buffer gen1 = Buffer::pattern(4096, 1);
  const VersionId v1 = co_await client.write(blob, 0, gen1);
  // Overwrite the middle chunk only.
  Buffer patch = Buffer::pattern(1024, 2);
  const VersionId v2 = co_await client.write(blob, 1024, patch);
  const Buffer r1 = co_await client.read(blob, v1, 0, 4096);
  Buffer expect2 = gen1;
  expect2.overwrite(1024, patch);
  const Buffer r2 = co_await client.read(blob, v2, 0, 4096);
  v1_ok = (r1 == gen1);
  v2_ok = (r2 == expect2);
}

TEST(BlobTest, ShadowingKeepsOldVersionsIntact) {
  TestCluster tc;
  bool v1_ok = false;
  bool v2_ok = false;
  tc.run(versions_are_snapshots(tc, v1_ok, v2_ok));
  EXPECT_TRUE(v1_ok);
  EXPECT_TRUE(v2_ok);
}

Task<> shadowing_shares_chunks(TestCluster& tc, std::uint64_t& before,
                               std::uint64_t& after) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  co_await client.write(blob, 0, Buffer::pattern(16 * 1024, 3));
  before = tc.store->total_stored_bytes();
  co_await client.write(blob, 2048, Buffer::pattern(1024, 4));
  after = tc.store->total_stored_bytes();
}

TEST(BlobTest, IncrementalWriteStoresOnlyDelta) {
  TestCluster tc;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  tc.run(shadowing_shares_chunks(tc, before, after));
  EXPECT_EQ(before, 16u * 1024);
  EXPECT_EQ(after - before, 1024u);  // one chunk re-written
}

Task<> clone_diverges(TestCluster& tc, bool& clone_sees_base,
                      bool& clone_diverged, bool& base_unaffected) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId base = co_await client.create();
  const Buffer original = Buffer::pattern(4096, 5);
  const VersionId v1 = co_await client.write(base, 0, original);

  const BlobId fork = co_await client.clone(base, v1);
  const Buffer through_clone = co_await client.read(fork, 1, 0, 4096);
  clone_sees_base = (through_clone == original);

  const Buffer patch = Buffer::pattern(1024, 6);
  const VersionId v2 = co_await client.write(fork, 0, patch);
  Buffer expected = original;
  expected.overwrite(0, patch);
  const Buffer diverged = co_await client.read(fork, v2, 0, 4096);
  clone_diverged = (diverged == expected);

  const Buffer base_back = co_await client.read(base, v1, 0, 4096);
  base_unaffected = (base_back == original);
}

TEST(BlobTest, CloneSharesThenDiverges) {
  TestCluster tc;
  bool a = false;
  bool b = false;
  bool c = false;
  tc.run(clone_diverges(tc, a, b, c));
  EXPECT_TRUE(a);
  EXPECT_TRUE(b);
  EXPECT_TRUE(c);
}

Task<> clone_costs_nothing(TestCluster& tc, std::uint64_t& delta) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId base = co_await client.create();
  co_await client.write(base, 0, Buffer::pattern(8192, 7));
  const std::uint64_t before = tc.store->total_stored_bytes();
  co_await client.clone(base, 1);
  delta = tc.store->total_stored_bytes() - before;
}

TEST(BlobTest, CloneIsZeroCopy) {
  TestCluster tc;
  std::uint64_t delta = 1;
  tc.run(clone_costs_nothing(tc, delta));
  EXPECT_EQ(delta, 0u);
}

Task<> sparse_holes(TestCluster& tc, bool& ok) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  // Write only the 4th chunk; chunks 0..2 are holes.
  const VersionId v = co_await client.write(blob, 3 * 1024,
                                            Buffer::pattern(1024, 8));
  const Buffer front = co_await client.read(blob, v, 0, 2048);
  ok = (front == Buffer::zeros(2048));
}

TEST(BlobTest, HolesReadAsZeros) {
  TestCluster tc;
  bool ok = false;
  tc.run(sparse_holes(tc, ok));
  EXPECT_TRUE(ok);
}

Task<> unaligned_write(TestCluster& tc, bool& threw) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  try {
    co_await client.write(blob, 100, Buffer::pattern(1024, 9));
  } catch (const BlobError&) {
    threw = true;
  }
}

TEST(BlobTest, UnalignedWriteRejected) {
  TestCluster tc;
  bool threw = false;
  tc.run(unaligned_write(tc, threw));
  EXPECT_TRUE(threw);
}

Task<> multi_extent_commit(TestCluster& tc, VersionId& version, bool& ok) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  co_await client.write(blob, 0, Buffer::zeros(8192));
  std::vector<Extent> extents;
  extents.push_back({0, Buffer::pattern(1024, 10)});
  extents.push_back({4096, Buffer::pattern(2048, 11)});
  version = co_await client.write_extents(blob, std::move(extents));
  Buffer expect = Buffer::zeros(8192);
  expect.overwrite(0, Buffer::pattern(1024, 10));
  expect.overwrite(4096, Buffer::pattern(2048, 11));
  const Buffer back = co_await client.read(blob, version, 0, 8192);
  ok = (back == expect);
}

TEST(BlobTest, MultiExtentCommitIsOneVersion) {
  TestCluster tc;
  VersionId v = 0;
  bool ok = false;
  tc.run(multi_extent_commit(tc, v, ok));
  EXPECT_EQ(v, 2u);
  EXPECT_TRUE(ok);
}

Task<> version_accounting(TestCluster& tc, std::vector<VersionInfo>& out) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  co_await client.write(blob, 0, Buffer::pattern(8192, 12));
  co_await client.write(blob, 0, Buffer::pattern(1024, 13));
  const BlobMeta meta = co_await client.stat(blob);
  out = meta.versions;
}

TEST(BlobTest, PerVersionByteAccounting) {
  TestCluster tc;
  std::vector<VersionInfo> versions;
  tc.run(version_accounting(tc, versions));
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].new_chunk_bytes, 8192u);
  EXPECT_EQ(versions[1].new_chunk_bytes, 1024u);
  EXPECT_GT(versions[0].new_meta_bytes, 0u);
  // The small second write shares most subtrees: far less new metadata.
  EXPECT_LT(versions[1].new_meta_bytes, versions[0].new_meta_bytes);
}

Task<> balanced_writes(TestCluster& tc) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  co_await client.write(blob, 0, Buffer::pattern(64 * 1024, 14));
}

TEST(BlobTest, PlacementBalancesProviders) {
  TestCluster tc(/*n_data=*/4);
  tc.run(balanced_writes(tc));
  // 64 chunks over 4 providers: each gets exactly 16 KiB.
  for (const auto& p : tc.store->providers()) {
    EXPECT_EQ(p->stored_bytes(), 16u * 1024);
  }
}

// Oracle for ProviderManager::pick_replicas: the original selection, a
// stable sort of every provider by (assigned bytes, per-chunk hash) that
// then skips dead providers.
std::vector<net::NodeId> reference_pick(
    const std::vector<std::unique_ptr<DataProvider>>& providers,
    std::vector<std::uint64_t>& assigned, ChunkId id, std::uint32_t size,
    int replication) {
  std::vector<std::size_t> order(providers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&assigned, id](std::size_t a, std::size_t b) {
                     if (assigned[a] != assigned[b])
                       return assigned[a] < assigned[b];
                     return common::mix64(id * 0x9e3779b9ULL + a) <
                            common::mix64(id * 0x9e3779b9ULL + b);
                   });
  std::vector<net::NodeId> replicas;
  for (const std::size_t i : order) {
    if (static_cast<int>(replicas.size()) == replication) break;
    if (!providers[i]->alive()) continue;
    assigned[i] += size;
    replicas.push_back(providers[i]->node());
  }
  if (static_cast<int>(replicas.size()) < replication)
    throw BlobError("not enough live providers for replication");
  return replicas;
}

Task<> allocate_batch(TestCluster& tc, std::vector<std::uint32_t> sizes,
                      int replication, ChunkId& next_id,
                      std::vector<ChunkLocation>& out) {
  out = co_await tc.store->provider_manager().allocate(
      tc.client_node, sizes, replication, next_id);
}

class ReplicaSelectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReplicaSelectionTest, MatchesStableSortReference) {
  Rng rng(GetParam());
  TestCluster tc(/*n_data=*/3 + rng.uniform(8));
  const auto& providers = tc.store->providers();
  std::vector<std::uint64_t> assigned(providers.size(), 0);
  ChunkId next_id = 1;
  bool threw = false;
  for (int round = 0; round < 200 && !threw; ++round) {
    if (rng.chance(0.04)) providers[rng.uniform(providers.size())]->fail();
    // Few distinct sizes keep many providers tied on load.
    std::vector<std::uint32_t> sizes(1 + rng.uniform(6));
    for (std::uint32_t& s : sizes) s = 512u << rng.uniform(3);
    const int replication = 1 + static_cast<int>(rng.uniform(3));

    std::vector<std::vector<net::NodeId>> expect;
    try {
      ChunkId id = next_id;
      for (const std::uint32_t s : sizes) {
        expect.push_back(
            reference_pick(providers, assigned, id++, s, replication));
      }
    } catch (const BlobError&) {
      threw = true;
    }
    std::vector<ChunkLocation> got;
    if (threw) {
      // The "not enough live providers" error surfaces from allocate too.
      EXPECT_THROW(tc.run(allocate_batch(tc, sizes, replication, next_id, got)),
                   BlobError);
      break;
    }
    tc.run(allocate_batch(tc, sizes, replication, next_id, got));
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].replicas, expect[i]) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaSelectionTest,
                         ::testing::Values(1, 7, 42, 1234, 99991, 31337));

TEST(BlobTest, ReplicaSelectionThrowsWithTooFewLiveProviders) {
  TestCluster tc(/*n_data=*/3);
  tc.store->providers()[0]->fail();
  tc.store->providers()[2]->fail();
  ChunkId next_id = 1;
  std::vector<ChunkLocation> got;
  tc.run(allocate_batch(tc, {1024}, /*replication=*/1, next_id, got));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].replicas,
            std::vector<net::NodeId>{tc.store->providers()[1]->node()});
  EXPECT_THROW(tc.run(allocate_batch(tc, {1024}, /*replication=*/2, next_id,
                                     got)),
               BlobError);
}

Task<> replicated_write(TestCluster& tc, BlobId& blob) {
  BlobClient client(*tc.store, tc.client_node);
  blob = co_await client.create();
  co_await client.write(blob, 0, Buffer::pattern(4096, 15));
}

Task<> read_all(TestCluster& tc, BlobId blob, Buffer& out) {
  BlobClient client(*tc.store, tc.client_node);
  out = co_await client.read(blob, 1, 0, 4096);
}

TEST(BlobTest, ReplicationSurvivesProviderFailure) {
  TestCluster tc(/*n_data=*/4, /*replication=*/2);
  BlobId blob = 0;
  tc.run(replicated_write(tc, blob));
  const std::uint64_t stored = tc.store->total_stored_bytes();
  EXPECT_EQ(stored, 2u * 4096);  // every chunk twice
  // Kill one provider; all data still readable via the other replica.
  tc.store->fail_node(tc.store->providers()[0]->node());
  Buffer back;
  tc.run(read_all(tc, blob, back));
  EXPECT_EQ(back, Buffer::pattern(4096, 15));
}

TEST(BlobTest, NoReplicationLosesDataOnFailure) {
  TestCluster tc(/*n_data=*/2, /*replication=*/1);
  BlobId blob = 0;
  tc.run(replicated_write(tc, blob));
  tc.store->fail_node(tc.store->providers()[0]->node());
  Buffer back;
  EXPECT_THROW(tc.run(read_all(tc, blob, back)), BlobError);
}

Task<> gc_scenario(TestCluster& tc, BlobId& base, BlobId& ckpt) {
  BlobClient client(*tc.store, tc.client_node);
  base = co_await client.create();
  co_await client.write(base, 0, Buffer::pattern(8192, 16));  // base v1
  ckpt = co_await client.clone(base, 1);
  // Three checkpoint versions, each rewriting chunk 0.
  for (int i = 0; i < 3; ++i) {
    co_await client.write(ckpt, 0, Buffer::pattern(1024, 20 + i));
  }
}

/// One GC epoch that drops `blob`'s versions below `keep_from`.
Task<> collect(TestCluster& tc, BlobId blob, VersionId keep_from,
               GarbageCollector::Result& out) {
  GarbageCollector gc(*tc.store);
  std::vector<GarbageCollector::Drop> drops{{blob, keep_from}};
  out = co_await gc.collect(std::move(drops));
}

TEST(BlobTest, GcReclaimsOnlyUnsharedChunks) {
  TestCluster tc;
  BlobId base = 0;
  BlobId ckpt = 0;
  tc.run(gc_scenario(tc, base, ckpt));
  // ckpt versions: v1 (clone of base), v2, v3, v4 each with a 1 KiB rewrite.
  const std::uint64_t before = tc.store->total_stored_bytes();
  EXPECT_EQ(before, 8192u + 3 * 1024u);
  // Keep only the latest checkpoint version: v2 and v3's chunk-0 rewrites
  // are reclaimable; v1's chunks are shared with base and must survive.
  GarbageCollector::Result result;
  tc.run(collect(tc, ckpt, /*keep_from=*/4, result));
  EXPECT_EQ(result.reclaimed_bytes, 2u * 1024);
  EXPECT_EQ(tc.store->total_stored_bytes(), before - 2 * 1024);
  // Base must remain fully readable.
  Buffer back;
  tc.run(read_all(tc, base, back));
  EXPECT_EQ(back.slice(0, 4096), Buffer::pattern(8192, 16).slice(0, 4096));
}

TEST(BlobTest, GcTombstonesResolveToError) {
  TestCluster tc;
  BlobId base = 0;
  BlobId ckpt = 0;
  tc.run(gc_scenario(tc, base, ckpt));
  GarbageCollector::Result result;
  tc.run(collect(tc, ckpt, 4, result));
  Buffer back;
  bool threw = false;
  auto reader = [](TestCluster& cluster, BlobId blob, bool& out) -> Task<> {
    BlobClient client(*cluster.store, cluster.client_node);
    try {
      (void)co_await client.read(blob, 2, 0, 1024);
    } catch (const BlobError&) {
      out = true;
    }
  };
  tc.run(reader(tc, ckpt, threw));
  EXPECT_TRUE(threw);
}

// Property test: a random sequence of chunk-aligned writes across several
// versions must match a per-version reference snapshot.
class BlobPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

Task<> random_version_history(TestCluster& tc, std::uint64_t seed, bool& ok) {
  constexpr std::uint64_t kChunk = 1024;
  constexpr std::uint64_t kChunks = 16;
  Rng rng(seed);
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  std::vector<std::vector<std::uint8_t>> snapshots;  // reference per version
  std::vector<std::uint64_t> logical_sizes;
  std::vector<std::uint8_t> model(kChunk * kChunks, 0);
  std::uint64_t logical_size = 0;

  for (int version = 0; version < 8; ++version) {
    const std::uint64_t chunk_lo = rng.uniform(kChunks);
    const std::uint64_t n_chunks = 1 + rng.uniform(kChunks - chunk_lo);
    const Buffer data =
        Buffer::pattern(n_chunks * kChunk, rng.next_u64());
    co_await client.write(blob, chunk_lo * kChunk, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      model[chunk_lo * kChunk + i] =
          std::to_integer<std::uint8_t>(data.bytes()[i]);
    }
    logical_size = std::max(logical_size, chunk_lo * kChunk + data.size());
    snapshots.push_back(model);
    logical_sizes.push_back(logical_size);
  }
  ok = true;
  for (std::size_t v = 1; v <= snapshots.size(); ++v) {
    // Reads clip at the version's logical size, like a sparse file.
    const Buffer back = co_await client.read(
        blob, static_cast<VersionId>(v), 0, kChunk * kChunks);
    const auto& ref = snapshots[v - 1];
    if (back.size() != logical_sizes[v - 1]) {
      ok = false;
      co_return;
    }
    for (std::size_t i = 0; i < back.size(); ++i) {
      if (std::to_integer<std::uint8_t>(back.bytes()[i]) != ref[i]) {
        ok = false;
        co_return;
      }
    }
  }
}

TEST_P(BlobPropertyTest, RandomHistoryMatchesReference) {
  TestCluster tc;
  bool ok = false;
  tc.run(random_version_history(tc, GetParam(), ok));
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlobPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55));

Task<> phantom_roundtrip(TestCluster& tc, bool& ok) {
  BlobClient client(*tc.store, tc.client_node);
  const BlobId blob = co_await client.create();
  const VersionId v = co_await client.write(blob, 0, Buffer::phantom(4096));
  const Buffer back = co_await client.read(blob, v, 0, 4096);
  ok = back.is_phantom() && back.size() == 4096;
}

TEST(BlobTest, PhantomPayloadsFlowThrough) {
  TestCluster tc;
  bool ok = false;
  tc.run(phantom_roundtrip(tc, ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(tc.store->total_stored_bytes(), 4096u);
}

Task<> timed_reads(TestCluster& tc, sim::Duration& cold, sim::Duration& warm) {
  BlobClient writer(*tc.store, tc.client_node);
  const BlobId blob = co_await writer.create();
  co_await writer.write(blob, 0, Buffer::pattern(32 * 1024, 17));
  // Fresh client: cold metadata cache.
  BlobClient reader(*tc.store, tc.client_node);
  sim::Simulation& s = tc.sim;
  sim::Time t0 = s.now();
  co_await reader.prefetch_metadata(blob, 1, 0, 32 * 1024);
  (void)co_await reader.read(blob, 1, 0, 32 * 1024);
  cold = s.now() - t0;
  t0 = s.now();
  (void)co_await reader.read(blob, 1, 0, 32 * 1024);
  warm = s.now() - t0;
}

TEST(BlobTest, WarmMetadataCacheSpeedsReads) {
  TestCluster tc;
  sim::Duration cold = 0;
  sim::Duration warm = 0;
  tc.run(timed_reads(tc, cold, warm));
  EXPECT_LT(warm, cold);
}

}  // namespace
}  // namespace blobcr::blob
