// Tests for SimpleFs: on-disk persistence (mount decodes what sync wrote),
// page-cache semantics (unsynced data does not survive remount — the reason
// the paper's checkpoint protocol calls sync), the page cache's device I/O
// pattern, namespace ops, and a property test against a reference model
// with periodic remounts.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "guestfs/simplefs.h"
#include "img/mem_device.h"
#include "sim/sim.h"

namespace blobcr::guestfs {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;

/// MemDevice that logs the byte range of every read and write, to pin the
/// page cache's device I/O pattern (simulated time depends on it).
class CountingDevice : public img::MemDevice {
 public:
  using MemDevice::MemDevice;

  Task<> write(std::uint64_t offset, Buffer data) override {
    writes.push_back({offset, offset + data.size()});
    return MemDevice::write(offset, std::move(data));
  }
  Task<Buffer> read(std::uint64_t offset, std::uint64_t len) override {
    reads.push_back({offset, offset + len});
    return MemDevice::read(offset, len);
  }

  std::vector<common::Range> reads;
  std::vector<common::Range> writes;
};

struct TestFs {
  explicit TestFs(std::uint64_t capacity = 64 * 1024 * 1024)
      : dev(capacity) {}

  Simulation sim;
  CountingDevice dev;

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }

  FsConfig small_cfg() {
    FsConfig cfg;
    cfg.block_size = 4096;
    cfg.metadata_blocks = 128;
    return cfg;
  }
};

TEST(SimpleFsTest, MkfsMountEmpty) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    result = fs->exists("/") && fs->readdir("/").empty();
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, WriteReadRoundTrip) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    co_await fs->write_file("/hello.txt", Buffer::from_string("hello world"));
    const Buffer back = co_await fs->read_file("/hello.txt");
    result = (back.to_string() == "hello world");
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, SyncedDataSurvivesRemount) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    {
      auto fs = co_await SimpleFs::mount(tf.dev);
      co_await fs->write_file("/data.bin", Buffer::pattern(100'000, 1));
      co_await fs->sync();
    }
    auto fs2 = co_await SimpleFs::mount(tf.dev);
    const Buffer back = co_await fs2->read_file("/data.bin");
    result = (back == Buffer::pattern(100'000, 1));
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, UnsyncedDataLostOnRemount) {
  TestFs t;
  bool file_missing = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    {
      auto fs = co_await SimpleFs::mount(tf.dev);
      co_await fs->write_file("/volatile.bin", Buffer::pattern(5000, 2));
      // no sync: metadata and pages stay in the page cache
    }
    auto fs2 = co_await SimpleFs::mount(tf.dev);
    result = !fs2->exists("/volatile.bin");
  }(t, file_missing));
  EXPECT_TRUE(file_missing);
}

TEST(SimpleFsTest, AppendMovesCursor) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    const Fd fd = fs->open("/log", /*create=*/true);
    co_await fs->write(fd, Buffer::from_string("line1\n"));
    co_await fs->write(fd, Buffer::from_string("line2\n"));
    fs->close(fd);
    const Fd fd2 = fs->open("/log", false, /*append_mode=*/true);
    co_await fs->write(fd2, Buffer::from_string("line3\n"));
    fs->close(fd2);
    const Buffer all = co_await fs->read_file("/log");
    result = (all.to_string() == "line1\nline2\nline3\n");
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, PartialOverwriteReadModifyWrite) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    co_await fs->write_file("/f", Buffer::pattern(10'000, 3));
    const Fd fd = fs->open("/f");
    co_await fs->pwrite(fd, 5000, Buffer::pattern(100, 4));
    fs->close(fd);
    Buffer expect = Buffer::pattern(10'000, 3);
    expect.overwrite(5000, Buffer::pattern(100, 4));
    const Buffer back = co_await fs->read_file("/f");
    result = (back == expect);
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, DirectoryOperations) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    fs->mkdir("/a");
    fs->mkdir("/a/b");
    co_await fs->write_file("/a/b/c.txt", Buffer::from_string("x"));
    const auto names = fs->readdir("/a/b");
    const auto st = fs->stat("/a/b/c.txt");
    result = names.size() == 1 && names[0] == "c.txt" && st.size == 1 &&
             !st.is_dir && fs->stat("/a").is_dir;
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, UnlinkFreesSpaceForReuse) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    FsConfig cfg = tf.small_cfg();
    co_await SimpleFs::mkfs(tf.dev, cfg);
    auto fs = co_await SimpleFs::mount(tf.dev);
    // Fill most of the FS, delete, then the space must be reusable.
    const std::uint64_t big = 40ULL * 1024 * 1024;
    co_await fs->write_file("/big1", Buffer::phantom(big));
    fs->unlink("/big1");
    co_await fs->write_file("/big2", Buffer::phantom(big));
    result = fs->exists("/big2") && !fs->exists("/big1");
  }(t, ok));
  EXPECT_TRUE(ok);
}

TEST(SimpleFsTest, FullDiskThrows) {
  TestFs t;
  bool threw = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    bool caught = false;
    try {
      co_await fs->write_file("/too-big", Buffer::phantom(1ULL << 40));
    } catch (const FsError&) {
      caught = true;
    }
    result = caught;
  }(t, threw));
  EXPECT_TRUE(threw);
}

TEST(SimpleFsTest, ErrorsOnBadPaths) {
  TestFs t;
  int caught = 0;
  t.run([](TestFs& tf, int& count) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    try {
      fs->open("/missing");
    } catch (const FsError&) {
      ++count;
    }
    fs->mkdir("/d");
    try {
      fs->mkdir("/d");
    } catch (const FsError&) {
      ++count;
    }
    co_await fs->write_file("/d/f", Buffer::from_string("x"));
    try {
      fs->unlink("/d");
    } catch (const FsError&) {
      ++count;
    }
  }(t, caught));
  EXPECT_EQ(caught, 3);
}

TEST(SimpleFsTest, ScatterSpreadsFiles) {
  TestFs t;
  std::size_t extents_scattered = 0;
  t.run([](TestFs& tf, std::size_t& out) -> Task<> {
    FsConfig cfg = tf.small_cfg();
    cfg.alloc_scatter_blocks = 64;
    co_await SimpleFs::mkfs(tf.dev, cfg);
    auto fs = co_await SimpleFs::mount(tf.dev);
    std::uint64_t last_begin = 0;
    bool monotone = true;
    for (int i = 0; i < 8; ++i) {
      const std::string path = "/f" + std::to_string(i);
      co_await fs->write_file(path, Buffer::pattern(64 * 1024, i));
      const auto st = fs->stat(path);
      (void)st;
      (void)last_begin;
      (void)monotone;
    }
    // With scattering, the 8 files do not form one contiguous run: count
    // distinct extents overall.
    std::size_t total_extents = 0;
    for (int i = 0; i < 8; ++i) {
      total_extents += fs->stat("/f" + std::to_string(i)).extent_count;
    }
    out = total_extents;
  }(t, extents_scattered));
  EXPECT_GE(extents_scattered, 8u);
}

TEST(SimpleFsTest, PhantomContentWithRealMetadata) {
  TestFs t;
  bool ok = false;
  t.run([](TestFs& tf, bool& result) -> Task<> {
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    {
      auto fs = co_await SimpleFs::mount(tf.dev);
      co_await fs->write_file("/ph.bin", Buffer::phantom(1'000'000));
      co_await fs->sync();
    }
    // Remount decodes real metadata even though the file payload is phantom.
    auto fs2 = co_await SimpleFs::mount(tf.dev);
    const Buffer back = co_await fs2->read_file("/ph.bin");
    result = back.is_phantom() && back.size() == 1'000'000;
  }(t, ok));
  EXPECT_TRUE(ok);
}

// Byte range of data blocks [a, b), counted from the data region's start.
common::Range data_blocks(const SimpleFs& fs, std::uint64_t a,
                          std::uint64_t b) {
  const std::uint64_t bs = fs.config().block_size;
  const std::uint64_t d = fs.data_start_block();
  return {(d + a) * bs, (d + b) * bs};
}

TEST(SimpleFsTest, DeviceIoIsOneCallPerPhysicalRun) {
  TestFs t;
  t.run([](TestFs& tf) -> Task<> {
    constexpr std::uint64_t bs = 4096;
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    {
      // Interleave appends to /a with other files: /a ends up in three
      // extents, data blocks [0,3) [4,7) [8,10).
      auto fs = co_await SimpleFs::mount(tf.dev);
      co_await fs->write_file("/a", Buffer::pattern(3 * bs, 1));
      co_await fs->write_file("/b", Buffer::pattern(bs, 2));
      Fd fd = fs->open("/a", false, /*append_mode=*/true);
      co_await fs->write(fd, Buffer::pattern(3 * bs, 3));
      fs->close(fd);
      co_await fs->write_file("/c", Buffer::pattern(bs, 4));
      fd = fs->open("/a", false, /*append_mode=*/true);
      co_await fs->write(fd, Buffer::pattern(2 * bs, 5));
      fs->close(fd);
      co_await fs->sync();
    }
    Buffer expect = Buffer::pattern(3 * bs, 1);
    expect.append(Buffer::pattern(3 * bs, 3));
    expect.append(Buffer::pattern(2 * bs, 5));

    auto fs = co_await SimpleFs::mount(tf.dev);
    EXPECT_EQ(fs->stat("/a").extent_count, 3u);
    const Fd fd = fs->open("/a");

    // Warm one block, then read the whole file: one device read per
    // uncached stretch of each extent, and none once all are cached.
    tf.dev.reads.clear();
    const Buffer one = co_await fs->pread(fd, bs, bs);
    EXPECT_EQ(one, expect.slice(bs, bs));
    EXPECT_EQ(tf.dev.reads,
              (std::vector<common::Range>{data_blocks(*fs, 1, 2)}));
    tf.dev.reads.clear();
    const Buffer all = co_await fs->pread(fd, 0, 8 * bs);
    EXPECT_EQ(all, expect);
    EXPECT_EQ(tf.dev.reads,
              (std::vector<common::Range>{
                  data_blocks(*fs, 0, 1), data_blocks(*fs, 2, 3),
                  data_blocks(*fs, 4, 7), data_blocks(*fs, 8, 10)}));
    tf.dev.reads.clear();
    const Buffer warm = co_await fs->pread(fd, 100, 7 * bs);
    EXPECT_EQ(warm, expect.slice(100, 7 * bs));
    EXPECT_TRUE(tf.dev.reads.empty());

    // Whole blocks across an extent boundary plus a cached partial block:
    // dirty blocks {2} and {4,5,6}, so sync issues exactly two writes and
    // the partial block needs no read.
    tf.dev.writes.clear();
    co_await fs->pwrite(fd, 2 * bs, Buffer::pattern(3 * bs, 6));
    co_await fs->pwrite(fd, 5 * bs + 100, Buffer::pattern(50, 7));
    expect.overwrite(2 * bs, Buffer::pattern(3 * bs, 6));
    expect.overwrite(5 * bs + 100, Buffer::pattern(50, 7));
    co_await fs->sync();
    EXPECT_TRUE(tf.dev.reads.empty());
    EXPECT_EQ(tf.dev.writes,
              (std::vector<common::Range>{data_blocks(*fs, 2, 3),
                                          data_blocks(*fs, 4, 7)}));
    fs->close(fd);

    auto fs2 = co_await SimpleFs::mount(tf.dev);
    const Buffer back = co_await fs2->read_file("/a");
    EXPECT_EQ(back, expect);
  }(t));
}

TEST(SimpleFsTest, ReusedBlocksDropTheUnlinkedFilesPages) {
  // 2 MiB device: 320 data blocks, so the second file wraps around onto the
  // first one's blocks.
  TestFs t(2 * 1024 * 1024);
  t.run([](TestFs& tf) -> Task<> {
    constexpr std::uint64_t bs = 4096;
    co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
    auto fs = co_await SimpleFs::mount(tf.dev);
    co_await fs->write_file("/old", Buffer::pattern(250 * bs, 1));  // [0,250)
    co_await fs->sync();
    co_await fs->pwrite(fs->open("/old"), 0, Buffer::pattern(250 * bs, 2));
    fs->unlink("/old");  // its pages are cached and dirty

    // Half-block tail: the unwritten half must be zeros, not /old's bytes.
    Buffer fresh = Buffer::pattern(100 * bs - bs / 2, 3);
    co_await fs->write_file("/new", fresh);  // [0,100)
    const Fd fd = fs->open("/new");
    co_await fs->pwrite(fd, 40 * bs + 7, Buffer::phantom(bs));
    fs->close(fd);
    fresh.overwrite(40 * bs + 7, Buffer::phantom(bs));
    const Buffer cached = co_await fs->read_file("/new");
    EXPECT_EQ(cached, fresh);

    // Only /new's blocks are flushed: /old's dirty pages died with it. The
    // other writes are the superblock and the metadata region.
    tf.dev.writes.clear();
    co_await fs->sync();
    EXPECT_FALSE(tf.dev.writes.empty());
    for (std::size_t i = 0; i < tf.dev.writes.size(); ++i) {
      if (i == 0) {
        EXPECT_EQ(tf.dev.writes[i], data_blocks(*fs, 0, 100));
      } else {
        EXPECT_LE(tf.dev.writes[i].end, data_blocks(*fs, 0, 1).begin);
      }
    }

    auto fs2 = co_await SimpleFs::mount(tf.dev);
    const Buffer back = co_await fs2->read_file("/new");
    EXPECT_EQ(back, fresh);
    const Buffer tail =
        co_await tf.dev.read(data_blocks(*fs, 99, 100).begin, bs);
    EXPECT_EQ(tail.slice(bs / 2, bs / 2), Buffer::zeros(bs / 2));
  }(t));
}

// Real and phantom pieces, alternating, so one flushed run carries both.
Buffer mixed_content(common::Rng& rng) {
  Buffer out;
  const std::uint64_t pieces = 2 + rng.uniform(4);
  for (std::uint64_t i = 0; i < pieces; ++i) {
    const std::size_t n = 1 + rng.uniform(9000);
    out.append(i % 2 == 0 ? Buffer::pattern(n, rng.next_u64())
                          : Buffer::phantom(n));
  }
  return out;
}

// Property test: random file operations with periodic sync+remount always
// match an in-memory reference model. The device is small (320 data
// blocks), so unlinked blocks are soon reused by other files.
class FsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

Task<> random_fs_ops(TestFs& tf, std::uint64_t seed, bool& ok) {
  common::Rng rng(seed);
  co_await SimpleFs::mkfs(tf.dev, tf.small_cfg());
  auto fs = co_await SimpleFs::mount(tf.dev);
  std::map<std::string, Buffer> model;          // synced truth
  std::map<std::string, Buffer> pending = model;  // includes unsynced

  ok = true;
  for (int step = 0; step < 160 && ok; ++step) {
    const double dice = rng.uniform01();
    const std::string path = "/file" + std::to_string(rng.uniform(6));
    if (dice < 0.3) {
      const Buffer data =
          rng.chance(0.3)
              ? mixed_content(rng)
              : Buffer::pattern(1 + rng.uniform(30'000), rng.next_u64());
      co_await fs->write_file(path, data);
      pending[path] = data;
    } else if (dice < 0.45) {
      // In-place write at any offset up to EOF: mostly partial blocks in
      // the middle of a multi-block extent.
      if (pending.count(path) != 0) {
        Buffer& truth = pending[path];
        const std::uint64_t at = rng.uniform(truth.size() + 1);
        const Buffer data =
            rng.chance(0.2)
                ? Buffer::phantom(1 + rng.uniform(9000))
                : Buffer::pattern(1 + rng.uniform(9000), rng.next_u64());
        const Fd fd = fs->open(path);
        co_await fs->pwrite(fd, at, data);
        fs->close(fd);
        truth.overwrite(at, data);
      }
    } else if (dice < 0.6) {
      if (pending.count(path) != 0) {
        fs->unlink(path);
        pending.erase(path);
      }
    } else if (dice < 0.75) {
      // verify against pending state
      if (pending.count(path) != 0) {
        const Buffer back = co_await fs->read_file(path);
        ok = (back == pending[path]);
      } else {
        ok = !fs->exists(path);
      }
    } else if (dice < 0.9) {
      co_await fs->sync();
      model = pending;
    } else {
      // crash-remount: unsynced changes vanish.
      co_await fs->sync();  // make checkpoint
      model = pending;
      fs = co_await SimpleFs::mount(tf.dev);
      pending = model;
      for (const auto& [p, data] : model) {
        const Buffer back = co_await fs->read_file(p);
        if (!(back == data)) {
          ok = false;
          break;
        }
      }
    }
  }
}

TEST_P(FsPropertyTest, MatchesReferenceModel) {
  TestFs t(2 * 1024 * 1024);
  bool ok = false;
  t.run(random_fs_ops(t, GetParam(), ok));
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest,
                         ::testing::Values(3, 14, 159, 2653, 58979));

}  // namespace
}  // namespace blobcr::guestfs
