// Tests for the qcow2-style image: COW semantics, backing files, copy-up,
// internal snapshots (savevm/loadvm), container growth accounting.
#include <gtest/gtest.h>

#include <memory>

#include "img/qcow.h"
#include "sim/sim.h"
#include "storage/byte_store.h"
#include "storage/disk.h"

namespace blobcr::img {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;

constexpr std::uint64_t kCluster = 1024;

struct TestImg {
  Simulation sim;
  std::unique_ptr<storage::Disk> disk;
  std::unique_ptr<storage::LocalFile> base_file;
  std::unique_ptr<storage::LocalFile> container;
  std::unique_ptr<QcowImage> image;

  explicit TestImg(std::uint64_t virtual_size = 16 * kCluster,
                   bool with_backing = true) {
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 1e9;
    dcfg.position_cost = 0;
    disk = std::make_unique<storage::Disk>(sim, dcfg);
    container = std::make_unique<storage::LocalFile>(*disk, 1);
    QcowImage::Config cfg;
    cfg.cluster_size = kCluster;
    cfg.virtual_size = virtual_size;
    if (with_backing) {
      base_file = std::make_unique<storage::LocalFile>(*disk, 2);
    }
    image = std::make_unique<QcowImage>(*container, base_file.get(), cfg);
  }

  /// Fills the backing store with a pattern (simulating the base OS image).
  void fill_backing(std::uint64_t bytes, std::uint64_t seed) {
    run([](TestImg& t, std::uint64_t n, std::uint64_t s) -> Task<> {
      co_await t.base_file->write(0, Buffer::pattern(n, s));
    }(*this, bytes, seed));
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

TEST(QcowTest, UnallocatedReadsFallThroughToBacking) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    const Buffer b = co_await ti.image->read(kCluster, 2 * kCluster);
    result = (b == Buffer::pattern(8 * kCluster, 1).slice(kCluster, 2 * kCluster));
  }(t, ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(t.image->allocated_clusters(), 0u);
}

TEST(QcowTest, ReadsWithoutBackingAreZeros) {
  TestImg t(16 * kCluster, /*with_backing=*/false);
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    const Buffer b = co_await ti.image->read(0, 100);
    result = (b == Buffer::zeros(100));
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(QcowTest, WriteThenReadHitsLocalCluster) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    co_await ti.image->write(0, Buffer::pattern(kCluster, 2));
    const Buffer b = co_await ti.image->read(0, kCluster);
    result = (b == Buffer::pattern(kCluster, 2));
  }(t, ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(t.image->allocated_clusters(), 1u);
}

TEST(QcowTest, PartialWriteCopiesUpFromBacking) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    // Write 100 bytes mid-cluster: the rest must come from backing.
    co_await ti.image->write(kCluster + 200, Buffer::pattern(100, 3));
    const Buffer b = co_await ti.image->read(kCluster, kCluster);
    Buffer expect = Buffer::pattern(8 * kCluster, 1).slice(kCluster, kCluster);
    expect.overwrite(200, Buffer::pattern(100, 3));
    result = (b == expect);
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(QcowTest, InPlaceUpdateDoesNotGrowContainer) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  std::uint64_t after_first = 0;
  std::uint64_t after_second = 0;
  t.run([](TestImg& ti, std::uint64_t& a, std::uint64_t& b) -> Task<> {
    co_await ti.image->write(0, Buffer::pattern(kCluster, 2));
    a = ti.image->container_bytes();
    co_await ti.image->write(100, Buffer::pattern(50, 3));
    b = ti.image->container_bytes();
  }(t, after_first, after_second));
  EXPECT_EQ(after_first, after_second);
}

TEST(QcowTest, SnapshotFreezesClustersCowOnNextWrite) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  t.run([](TestImg& ti, std::uint64_t& b, std::uint64_t& a) -> Task<> {
    co_await ti.image->write(0, Buffer::pattern(kCluster, 2));
    co_await ti.image->save_vm_state(Buffer::pattern(100, 9));
    b = ti.image->container_bytes();
    // Rewriting the frozen cluster must allocate a new one.
    co_await ti.image->write(0, Buffer::pattern(kCluster, 4));
    a = ti.image->container_bytes();
  }(t, before, after));
  EXPECT_EQ(after - before, kCluster);
}

TEST(QcowTest, LoadVmStateRollsDiskBack) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  bool state_ok = false;
  bool disk_ok = false;
  t.run([](TestImg& ti, bool& s_ok, bool& d_ok) -> Task<> {
    co_await ti.image->write(0, Buffer::pattern(kCluster, 2));
    co_await ti.image->save_vm_state(Buffer::pattern(500, 9));
    // Post-snapshot damage that must be rolled back.
    co_await ti.image->write(0, Buffer::pattern(kCluster, 5));
    const Buffer state = co_await ti.image->load_vm_state();
    s_ok = (state == Buffer::pattern(500, 9));
    const Buffer disk = co_await ti.image->read(0, kCluster);
    d_ok = (disk == Buffer::pattern(kCluster, 2));
  }(t, state_ok, disk_ok));
  EXPECT_TRUE(state_ok);
  EXPECT_TRUE(disk_ok);
}

TEST(QcowTest, ContainerOnlyGrows) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  std::vector<std::uint64_t> sizes;
  t.run([](TestImg& ti, std::vector<std::uint64_t>& out) -> Task<> {
    for (int round = 0; round < 4; ++round) {
      co_await ti.image->write(0, Buffer::pattern(2 * kCluster, 10 + round));
      co_await ti.image->save_vm_state(Buffer::pattern(3 * kCluster, 50 + round));
      out.push_back(ti.image->container_bytes());
    }
  }(t, sizes));
  ASSERT_EQ(sizes.size(), 4u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }
  EXPECT_EQ(t.image->snapshot_count(), 4u);
}

TEST(QcowTest, MetadataBytesGrowWithL2Tables) {
  TestImg t(/*virtual=*/3 * 8192 * kCluster);
  std::uint64_t meta0 = t.image->metadata_bytes();
  t.run([](TestImg& ti) -> Task<> {
    co_await ti.image->write(0, Buffer::pattern(kCluster, 1));
    // Far-away cluster: needs a second L2 table.
    co_await ti.image->write(2 * 8192 * kCluster, Buffer::pattern(kCluster, 2));
  }(t));
  EXPECT_EQ(t.image->metadata_bytes() - meta0, 2 * kCluster);
}

TEST(QcowTest, WriteBeyondVirtualSizeThrows) {
  TestImg t(4 * kCluster);
  bool threw = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    try {
      co_await ti.image->write(4 * kCluster, Buffer::pattern(10, 1));
    } catch (const std::runtime_error&) {
      result = true;
    }
  }(t, threw));
  EXPECT_TRUE(threw);
}

TEST(QcowTest, PhantomWritesKeepAccounting) {
  TestImg t;
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    co_await ti.image->write(0, Buffer::phantom(4 * kCluster));
    const Buffer b = co_await ti.image->read(0, 4 * kCluster);
    result = b.is_phantom();
  }(t, ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(t.image->allocated_clusters(), 4u);
  EXPECT_EQ(t.image->guest_bytes_written(), 4 * kCluster);
}

TEST(QcowTest, QcowDeviceAdapter) {
  TestImg t;
  t.fill_backing(8 * kCluster, 1);
  bool ok = false;
  t.run([](TestImg& ti, bool& result) -> Task<> {
    // The guest sees the image through the BlockDevice interface.
    BlockDevice& dev = *ti.image;
    co_await dev.write(0, Buffer::pattern(100, 6));
    const Buffer b = co_await dev.read(0, 100);
    result = (b == Buffer::pattern(100, 6)) &&
             dev.capacity() == 16 * kCluster;
  }(t, ok));
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace blobcr::img
