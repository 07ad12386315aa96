// Tests for the PVFS-style parallel file system baseline.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pfs/pvfs.h"
#include "pfs/pvfs_store.h"
#include "sim/sim.h"

namespace blobcr::pfs {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;
using sim::Time;
using sim::to_seconds;

struct TestPvfs {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<PvfsCluster> cluster;
  net::NodeId client_node;

  explicit TestPvfs(std::size_t n_io = 4, double nic_bps = 1e9,
                    double disk_bps = 1e9,
                    std::uint64_t stripe = 1024) {
    const std::size_t total = 1 + n_io + 2;  // meta + io + 2 clients
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = nic_bps;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);
    PvfsCluster::Config cfg;
    cfg.meta_node = 0;
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = disk_bps;
    dcfg.position_cost = sim::kMillisecond;
    for (std::size_t i = 0; i < n_io; ++i) {
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
      cfg.io_servers.push_back(
          {static_cast<net::NodeId>(1 + i), disks.back().get()});
    }
    cfg.stripe_size = stripe;
    cluster = std::make_unique<PvfsCluster>(sim, *fabric, cfg);
    client_node = static_cast<net::NodeId>(total - 2);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

Task<> roundtrip(TestPvfs& tp, bool& ok) {
  PvfsClient client(*tp.cluster, tp.client_node);
  const FileId f = co_await client.create("/data/file1");
  const Buffer data = Buffer::pattern(10'000, 3);
  co_await client.write(f, 0, data);
  const Buffer back = co_await client.read(f, 0, 10'000);
  ok = (back == data);
}

TEST(PvfsTest, WriteReadRoundTrip) {
  TestPvfs tp;
  bool ok = false;
  tp.run(roundtrip(tp, ok));
  EXPECT_TRUE(ok);
}

Task<> offset_rw(TestPvfs& tp, bool& ok) {
  PvfsClient client(*tp.cluster, tp.client_node);
  const FileId f = co_await client.create("/f");
  co_await client.write(f, 0, Buffer::zeros(8192));
  co_await client.write(f, 3000, Buffer::pattern(100, 4));
  const Buffer back = co_await client.read(f, 2990, 120);
  Buffer expect = Buffer::zeros(120);
  expect.overwrite(10, Buffer::pattern(100, 4));
  ok = (back == expect);
}

TEST(PvfsTest, UnalignedOffsetsWork) {
  TestPvfs tp;
  bool ok = false;
  tp.run(offset_rw(tp, ok));
  EXPECT_TRUE(ok);
}

Task<> meta_ops(TestPvfs& tp, bool& missing_threw, bool& dup_threw,
                std::uint64_t& stat_size) {
  PvfsClient client(*tp.cluster, tp.client_node);
  try {
    (void)co_await client.open("/nope");
  } catch (const PvfsError&) {
    missing_threw = true;
  }
  (void)co_await client.create("/a");
  try {
    (void)co_await client.create("/a");
  } catch (const PvfsError&) {
    dup_threw = true;
  }
  const FileId f = co_await client.open("/a");
  co_await client.write(f, 0, Buffer::pattern(5000, 5));
  stat_size = co_await client.stat_size("/a");
}

TEST(PvfsTest, MetadataOperations) {
  TestPvfs tp;
  bool missing = false;
  bool dup = false;
  std::uint64_t size = 0;
  tp.run(meta_ops(tp, missing, dup, size));
  EXPECT_TRUE(missing);
  EXPECT_TRUE(dup);
  EXPECT_EQ(size, 5000u);
  EXPECT_GE(tp.cluster->meta_requests(), 4u);
}

Task<> remove_file(TestPvfs& tp, bool& gone) {
  PvfsClient client(*tp.cluster, tp.client_node);
  const FileId f = co_await client.create("/tmp");
  co_await client.write(f, 0, Buffer::pattern(4096, 6));
  co_await client.remove("/tmp");
  try {
    (void)co_await client.open("/tmp");
  } catch (const PvfsError&) {
    gone = true;
  }
}

TEST(PvfsTest, RemoveReclaimsSpace) {
  TestPvfs tp;
  bool gone = false;
  tp.run(remove_file(tp, gone));
  EXPECT_TRUE(gone);
  EXPECT_EQ(tp.cluster->total_stored_bytes(), 0u);
}

TEST(PvfsTest, StripingSpreadsAcrossServers) {
  TestPvfs tp(/*n_io=*/4, 1e9, 1e9, /*stripe=*/1024);
  bool ok = false;
  tp.run(roundtrip(tp, ok));
  ASSERT_TRUE(ok);
  // 10'000 bytes in 1 KiB stripes over 4 servers: every server stores some.
  for (const auto& d : tp.disks) {
    EXPECT_GT(d->bytes_written(), 0u);
  }
}

// Static placement: two files of the same size starting at different
// servers (id-derived), but the same file always lands identically.
Task<> write_two_files(TestPvfs& tp) {
  PvfsClient client(*tp.cluster, tp.client_node);
  const FileId a = co_await client.create("/a");
  const FileId b = co_await client.create("/b");
  co_await client.write(a, 0, Buffer::pattern(4096, 7));
  co_await client.write(b, 0, Buffer::pattern(4096, 8));
}

TEST(PvfsTest, PlacementIsStaticNotLoadAware) {
  TestPvfs tp(/*n_io=*/4, 1e9, 1e9, 1024);
  tp.run(write_two_files(tp));
  // With round-robin striping both 4 KiB files hit all 4 servers with 1 KiB
  // each; the point is determinism, not balance.
  std::vector<std::uint64_t> loads;
  for (const auto& d : tp.disks) loads.push_back(d->bytes_written());
  for (const std::uint64_t l : loads) EXPECT_EQ(l, 2048u);
}

// Timing: many files interleaving on the same servers pay positioning costs;
// the BlobSeer provider-log model in blob_test does not. Here we check that
// writing two files concurrently is slower than twice a lone file at disk
// level (seek charges), using a disk-bound configuration.
// NOTE: spawned coroutines must take value parameters (a reference to a
// temporary would dangle once the spawning statement ends).
Task<> concurrent_writer(TestPvfs& tp, std::string path,
                         std::vector<Time>& done) {
  PvfsClient client(*tp.cluster, tp.client_node);
  const FileId f = co_await client.create(path);
  co_await client.write(f, 0, Buffer::phantom(64 * 1024));
  done.push_back(tp.sim.now());
}

TEST(PvfsTest, InterleavedFilesPayPositioningCosts) {
  // Disk-bound: slow disks (1 MB/s), fast network.
  TestPvfs tp(/*n_io=*/2, /*nic=*/1e9, /*disk=*/1e6, /*stripe=*/1024);
  std::vector<Time> done;
  tp.run([](TestPvfs& cluster, std::vector<Time>& out) -> Task<> {
    auto p1 = cluster.sim.spawn(
        "w1", concurrent_writer(cluster, "/f1", out));
    auto p2 = cluster.sim.spawn(
        "w2", concurrent_writer(cluster, "/f2", out));
    co_await p1->join();
    co_await p2->join();
  }(tp, done));
  ASSERT_EQ(done.size(), 2u);
  std::uint64_t seeks = 0;
  for (const auto& d : tp.disks) seeks += d->seeks();
  // Interleaved stripes from two bstreams per server: far more than the 2
  // initial seeks a lone sequential stream would cost.
  EXPECT_GT(seeks, 16u);
}

Task<> store_adapter(TestPvfs& tp, bool& ok) {
  auto store = co_await PvfsFileStore::open(*tp.cluster, tp.client_node,
                                            "/img/base.raw", true);
  co_await store->write(0, Buffer::pattern(5000, 9));
  const Buffer back = co_await store->read(1000, 2000);
  ok = (back == Buffer::pattern(5000, 9).slice(1000, 2000)) &&
       store->size() == 5000;
}

TEST(PvfsTest, ByteStoreAdapter) {
  TestPvfs tp;
  bool ok = false;
  tp.run(store_adapter(tp, ok));
  EXPECT_TRUE(ok);
}

TEST(PvfsTest, PhantomPayloadRoundTrip) {
  TestPvfs tp;
  bool ok = false;
  tp.run([](TestPvfs& cluster, bool& result) -> Task<> {
    PvfsClient client(*cluster.cluster, cluster.client_node);
    const FileId f = co_await client.create("/ph");
    co_await client.write(f, 0, Buffer::phantom(100'000));
    const Buffer back = co_await client.read(f, 0, 100'000);
    result = back.is_phantom() && back.size() == 100'000;
  }(tp, ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(tp.cluster->total_stored_bytes(), 100'000u);
}

}  // namespace
}  // namespace blobcr::pfs
