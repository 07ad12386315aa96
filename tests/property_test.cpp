// Cross-module property tests: randomized operation histories checked
// against reference models, snapshot isolation across CLONE/COMMIT cycles,
// failure injection at arbitrary points of the checkpoint protocol, and
// whole-job invariants of the FT runner under random failure schedules.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/blobcr.h"
#include "cr/remap.h"
#include "ft/failure.h"
#include "ft/runner.h"
#include "img/qcow.h"
#include "sim/sim.h"
#include "storage/byte_store.h"

namespace blobcr {
namespace {

using common::Buffer;
using common::Rng;
using sim::Simulation;
using sim::Task;

// ---------------------------------------------------------------------------
// MirrorDevice: random writes interleaved with CLONE/COMMIT snapshots.
// Every committed version must reconstruct, bit for bit, the device content
// as of its commit — no matter what was written afterwards.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kChunk = 4096;
constexpr std::uint64_t kImage = 48 * kChunk;

struct MirrorRig {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  /// 1-zone repository fabric over `store` (what mirrors fetch through).
  std::unique_ptr<federation::Fabric> repo;
  blob::BlobId base = 0;
  net::NodeId host = 0;

  MirrorRig() {
    const std::size_t n_data = 4;
    const std::size_t total = 2 + 2 + n_data + 1;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 50 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);
    blob::BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    cfg.metadata_nodes = {2, 3};
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 1e9;
    dcfg.position_cost = 100 * sim::kMicrosecond;
    for (std::size_t i = 0; i < n_data + 1; ++i) {
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
    }
    for (std::size_t i = 0; i < n_data; ++i) {
      cfg.data_providers.push_back(
          {static_cast<net::NodeId>(4 + i), disks[i].get(), 1});
    }
    cfg.default_chunk_size = kChunk;
    cfg.tree_depth = 10;
    store = std::make_unique<blob::BlobStore>(sim, *fabric, cfg);
    repo = std::make_unique<federation::Fabric>(sim, *fabric,
                                                federation::FederationConfig{});
    repo->add_zone(store.get(), 0, static_cast<net::NodeId>(total));
    host = static_cast<net::NodeId>(total - 1);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

class MirrorSnapshotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MirrorSnapshotPropertyTest, EveryCommittedVersionStaysIntact) {
  MirrorRig rig;
  rig.run([](MirrorRig* rig) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    rig->base = co_await client.create(kChunk);
    co_await client.write(rig->base, 0, Buffer::pattern(kImage, 42));
  }(&rig));

  core::MirrorDevice::Config mcfg;
  mcfg.capacity = kImage;
  core::DecodedChunkCache cache(512 * common::kMiB);
  core::MirrorDevice mirror(*rig.repo, rig.host, *rig.disks[4], 99,
                            rig.base, 1, mcfg, cache);

  struct Snapshot {
    blob::VersionId version = 0;
    std::vector<std::byte> content;
  };
  struct State {
    std::vector<std::byte> ref;
    std::vector<Snapshot> snapshots;
    blob::BlobId ckpt_blob = 0;
  } st;

  rig.run([](MirrorRig*, core::MirrorDevice* m, State* st,
             int seed) -> Task<> {
    // Reference starts as the base pattern.
    const Buffer base = Buffer::pattern(kImage, 42);
    st->ref.assign(base.bytes().begin(), base.bytes().end());

    Rng rng(0x9'0b1e55 + static_cast<std::uint64_t>(seed));
    for (int op = 0; op < 80; ++op) {
      const std::uint64_t dice = rng.uniform(10);
      if (dice < 6) {
        // Random write, mirrored into the reference.
        const std::uint64_t off = rng.uniform(kImage - 1);
        const std::uint64_t len = 1 + rng.uniform(
            std::min<std::uint64_t>(kImage - off, 3 * kChunk) - 1 + 1);
        Buffer data = Buffer::pattern(len, rng.next_u64());
        std::memcpy(st->ref.data() + off, data.bytes().data(), len);
        co_await m->write(off, std::move(data));
      } else if (dice < 9) {
        // Random read must match the reference.
        const std::uint64_t off = rng.uniform(kImage - 1);
        const std::uint64_t len = 1 + rng.uniform(
            std::min<std::uint64_t>(kImage - off, 2 * kChunk) - 1 + 1);
        const Buffer got = co_await m->read(off, len);
        Buffer expect = Buffer::real(std::vector<std::byte>(
            st->ref.begin() + static_cast<std::ptrdiff_t>(off),
            st->ref.begin() + static_cast<std::ptrdiff_t>(off + len)));
        EXPECT_TRUE(got == expect) << "read mismatch at op " << op;
      } else {
        // CLONE/COMMIT: snapshot the reference alongside the device.
        st->ckpt_blob = co_await m->ioctl_clone();
        const blob::VersionId v = co_await m->ioctl_commit();
        st->snapshots.push_back({v, st->ref});
      }
    }
    // Force at least one final snapshot so the test always verifies some.
    st->ckpt_blob = co_await m->ioctl_clone();
    const blob::VersionId v = co_await m->ioctl_commit();
    st->snapshots.push_back({v, st->ref});
  }(&rig, &mirror, &st, GetParam()));

  // Read every committed version back through a fresh client: each must be
  // exactly the reference as of its commit (snapshot isolation).
  rig.run([](MirrorRig* rig, State* st) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    for (const auto& snap : st->snapshots) {
      const Buffer got =
          co_await client.read(st->ckpt_blob, snap.version, 0, kImage);
      const Buffer expect = Buffer::real(snap.content);
      EXPECT_TRUE(got == expect)
          << "version " << snap.version << " diverged";
    }
  }(&rig, &st));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MirrorSnapshotPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Asynchronous commit pipeline: overlapping writes interleaved with async
// commits. Read-your-own-snapshot: once ioctl_commit returns a provisional
// version, that version — whenever it publishes — must contain exactly the
// device content as of the return, never chunks written afterwards (the
// drain ships the frozen staging generation, not the live cache).
// ---------------------------------------------------------------------------

class AsyncCommitPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AsyncCommitPropertyTest, PublishedVersionNeverContainsLaterWrites) {
  MirrorRig rig;
  rig.run([](MirrorRig* rig) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    rig->base = co_await client.create(kChunk);
    co_await client.write(rig->base, 0, Buffer::pattern(kImage, 42));
  }(&rig));

  core::MirrorDevice::Config mcfg;
  mcfg.capacity = kImage;
  mcfg.flush.enabled = true;
  core::DecodedChunkCache cache(512 * common::kMiB);
  core::MirrorDevice mirror(*rig.repo, rig.host, *rig.disks[4], 99,
                            rig.base, 1, mcfg, cache);

  struct Snapshot {
    blob::VersionId version = 0;
    std::vector<std::byte> content;
  };
  struct State {
    std::vector<std::byte> ref;
    std::vector<Snapshot> snapshots;
    blob::BlobId ckpt_blob = 0;
  } st;

  rig.run([](MirrorRig*, core::MirrorDevice* m, State* st,
             int seed) -> Task<> {
    const Buffer base = Buffer::pattern(kImage, 42);
    st->ref.assign(base.bytes().begin(), base.bytes().end());
    st->ckpt_blob = co_await m->ioctl_clone();

    Rng rng(0xa5'c0de + static_cast<std::uint64_t>(seed));
    std::uint64_t hot = 0;  // encourage overlapping writes around one spot
    for (int op = 0; op < 70; ++op) {
      const std::uint64_t dice = rng.uniform(10);
      if (dice < 7) {
        // Overlap-heavy random write: half the time near the hot offset.
        const std::uint64_t off = (dice < 3)
                                      ? rng.uniform(kImage - 1)
                                      : std::min(hot + rng.uniform(2 * kChunk),
                                                 kImage - 2);
        hot = off;
        const std::uint64_t len = 1 + rng.uniform(
            std::min<std::uint64_t>(kImage - off, 3 * kChunk) - 1 + 1);
        Buffer data = Buffer::pattern(len, rng.next_u64());
        std::memcpy(st->ref.data() + off, data.bytes().data(), len);
        co_await m->write(off, std::move(data));
      } else {
        // Async commit: the provisional version pins the content *now*;
        // the loop keeps writing immediately while the drain runs.
        const blob::VersionId v = co_await m->ioctl_commit();
        st->snapshots.push_back({v, st->ref});
      }
    }
    const blob::VersionId v = co_await m->ioctl_commit();
    st->snapshots.push_back({v, st->ref});
    co_await m->wait_drained();
  }(&rig, &mirror, &st, GetParam()));

  // Every provisional version, now published, must be exactly the content
  // at its ioctl_commit return — bit for bit, through a fresh client.
  rig.run([](MirrorRig* rig, State* st) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    for (const auto& snap : st->snapshots) {
      const Buffer got =
          co_await client.read(st->ckpt_blob, snap.version, 0, kImage);
      const Buffer expect = Buffer::real(snap.content);
      EXPECT_TRUE(got == expect)
          << "async version " << snap.version
          << " contains writes made after its commit returned";
    }
  }(&rig, &st));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncCommitPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// QcowImage: random write/read history over a backing file vs a flat
// reference, plus state export/reopen mid-history.
// ---------------------------------------------------------------------------

class QcowPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QcowPropertyTest, RandomHistoryMatchesReference) {
  constexpr std::uint64_t kCluster = 1024;
  constexpr std::uint64_t kSize = 64 * kCluster;

  Simulation sim;
  storage::Disk::Config dcfg;
  dcfg.bandwidth_bps = 1e9;
  dcfg.position_cost = 0;
  storage::Disk disk(sim, dcfg);
  storage::LocalFile backing(disk, 1);
  storage::LocalFile container(disk, 2);
  img::QcowImage::Config cfg;
  cfg.cluster_size = kCluster;
  cfg.virtual_size = kSize;
  auto image = std::make_unique<img::QcowImage>(container, &backing, cfg);

  auto run = [&sim](Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  };

  std::vector<std::byte> ref;
  run([](storage::LocalFile* b, std::vector<std::byte>* ref) -> Task<> {
    const Buffer base = Buffer::pattern(kSize, 7);
    ref->assign(base.bytes().begin(), base.bytes().end());
    co_await b->write(0, base);
  }(&backing, &ref));

  Rng rng(0xc0c0 + static_cast<std::uint64_t>(GetParam()));
  for (int op = 0; op < 60; ++op) {
    const std::uint64_t dice = rng.uniform(10);
    if (dice < 5) {
      const std::uint64_t off = rng.uniform(kSize - 1);
      const std::uint64_t len =
          1 + rng.uniform(std::min<std::uint64_t>(kSize - off, 5 * kCluster));
      Buffer data = Buffer::pattern(len, rng.next_u64());
      std::memcpy(ref.data() + off, data.bytes().data(), len);
      run([](img::QcowImage* img, std::uint64_t off, Buffer data) -> Task<> {
        co_await img->write(off, std::move(data));
      }(image.get(), off, std::move(data)));
    } else if (dice < 9) {
      const std::uint64_t off = rng.uniform(kSize - 1);
      const std::uint64_t len =
          1 + rng.uniform(std::min<std::uint64_t>(kSize - off, 3 * kCluster));
      Buffer got;
      run([](img::QcowImage* img, std::uint64_t off, std::uint64_t len,
             Buffer* out) -> Task<> {
        *out = co_await img->read(off, len);
      }(image.get(), off, len, &got));
      const Buffer expect = Buffer::real(std::vector<std::byte>(
          ref.begin() + static_cast<std::ptrdiff_t>(off),
          ref.begin() + static_cast<std::ptrdiff_t>(off + len)));
      EXPECT_TRUE(got == expect) << "qcow read mismatch at op " << op;
    } else {
      // Export the table state and reopen the image from it — the qcow2
      // snapshot-file lifecycle (copy container, reopen elsewhere).
      const img::QcowImage::State state = image->export_state();
      image = std::make_unique<img::QcowImage>(container, &backing, cfg);
      run([](img::QcowImage* img, img::QcowImage::State st) -> Task<> {
        co_await img->open_existing(st);
      }(image.get(), state));
    }
  }

  // Full-image readback.
  Buffer all;
  run([](img::QcowImage* img, Buffer* out) -> Task<> {
    *out = co_await img->read(0, kSize);
  }(image.get(), &all));
  EXPECT_TRUE(all == Buffer::real(ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QcowPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Checkpoint protocol failure injection: kill the snapshot mid-flight at an
// arbitrary offset; the previous checkpoint must restore bit for bit.
// ---------------------------------------------------------------------------

class KillPointTest : public ::testing::TestWithParam<int> {};

TEST_P(KillPointTest, AbortedSnapshotNeverCorruptsPreviousCheckpoint) {
  const sim::Duration kill_after = GetParam() * sim::kMillisecond;

  core::CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  core::Cloud cloud(cfg);

  struct Out {
    bool state_a_intact = false;
    bool rolled_back_b = false;
    bool next_checkpoint_works = false;
  } out;

  cloud.run([](core::Cloud* cl, sim::Duration kill_after, Out* out)
                -> Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();

    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/state.bin", Buffer::pattern(400'000, 1));
    co_await fs->sync();
    (void)co_await dep.snapshot_instance(0);
    const core::GlobalCheckpoint good = dep.collect_last_snapshots();

    // New dirty state, then a snapshot attempt that dies mid-protocol.
    co_await fs->write_file("/data/state.bin", Buffer::pattern(400'000, 2));
    co_await fs->sync();
    sim::ProcessPtr snap = cl->simulation().spawn(
        "doomed-snapshot", [](core::Deployment* d) -> Task<> {
          (void)co_await d->snapshot_instance(0);
        }(&dep));
    co_await cl->simulation().delay(kill_after);
    snap->kill();  // fail-stop at an arbitrary protocol point

    dep.destroy_all();
    const core::RestartPlan good_plan =
        cr::build_restart_plan(good.snapshots, good.snapshots.size());
    co_await dep.restart_from(good_plan, 1);
    guestfs::SimpleFs* fs2 = dep.vm(0).fs();
    const Buffer a = co_await fs2->read_file("/data/state.bin");
    out->state_a_intact = (a == Buffer::pattern(400'000, 1));
    out->rolled_back_b = !(a == Buffer::pattern(400'000, 2));

    // The repository must not be wedged: the next checkpoint still works.
    co_await fs2->write_file("/data/state.bin", Buffer::pattern(400'000, 3));
    co_await fs2->sync();
    (void)co_await dep.snapshot_instance(0);
    const core::GlobalCheckpoint next = dep.collect_last_snapshots();
    dep.destroy_all();
    const core::RestartPlan next_plan =
        cr::build_restart_plan(next.snapshots, next.snapshots.size());
    co_await dep.restart_from(next_plan, 2);
    const Buffer c = co_await dep.vm(0).fs()->read_file("/data/state.bin");
    out->next_checkpoint_works = (c == Buffer::pattern(400'000, 3));
  }(&cloud, kill_after, &out));

  EXPECT_TRUE(out.state_a_intact);
  EXPECT_TRUE(out.rolled_back_b);
  EXPECT_TRUE(out.next_checkpoint_works);
}

INSTANTIATE_TEST_SUITE_P(KillOffsetsMs, KillPointTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 40));

// ---------------------------------------------------------------------------
// FT runner under random failure schedules: whatever the schedule, the job
// either completes with verified state or gives up explicitly — and the
// bookkeeping stays consistent.
// ---------------------------------------------------------------------------

class FtSchedulePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FtSchedulePropertyTest, CompletesWithConsistentAccounting) {
  core::CloudConfig ccfg;
  ccfg.compute_nodes = 24;
  ccfg.metadata_nodes = 2;
  ccfg.backend = core::Backend::BlobCR;
  ccfg.replication = 2;
  ccfg.os = vm::GuestOsConfig::test_tiny();
  ccfg.vm.os_ram_bytes = 20 * common::kMB;
  core::Cloud cloud(ccfg);

  ft::FtJobConfig job;
  job.instances = 2;
  job.total_work = 90 * sim::kSecond;
  job.checkpoint_interval = 30 * sim::kSecond;
  job.step = 10 * sim::kSecond;
  job.state_bytes = 2 * common::kMB;
  job.real_data = true;
  job.repair_after_restart = true;
  job.failures = ft::FailureSchedule::sample(
      ft::FailureLaw::exponential(250.0), 2, 3600 * sim::kSecond,
      static_cast<std::uint64_t>(GetParam()));

  const ft::FtReport rep = ft::run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.useful_work, job.total_work);

  // Accounting invariants.
  std::size_t failed_epochs = 0;
  std::size_t failures_in_epochs = 0;
  sim::Duration wasted = 0;
  for (const ft::EpochRecord& e : rep.epochs) {
    EXPECT_GE(e.end, e.start);
    failed_epochs += e.success ? 0 : 1;
    failures_in_epochs += e.failures;
    if (!e.success) wasted += e.end - e.start;
  }
  EXPECT_EQ(failures_in_epochs, rep.failures);
  EXPECT_EQ(wasted, rep.wasted_compute);
  EXPECT_LE(failed_epochs, rep.restarts);
  EXPECT_GE(rep.makespan,
            rep.useful_work + rep.checkpoint_overhead + rep.wasted_compute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FtSchedulePropertyTest,
                         ::testing::Values(7, 17, 27, 37, 47));

}  // namespace
}  // namespace blobcr
