// End-to-end integration tests across the full stack: provision a cloud,
// deploy VMs, run guest workloads, checkpoint, destroy, restart, and verify
// state — including the paper's headline property that file-system I/O
// performed after the last checkpoint is rolled back by the restore.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/blobcr.h"
#include "cr/remap.h"
#include "sim/sim.h"

namespace blobcr::core {
namespace {

using common::Buffer;
using sim::Task;

CloudConfig tiny_cfg(Backend backend, int replication = 1) {
  CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.replication = replication;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  cfg.chunk_size = 256 * 1024;
  return cfg;
}

/// Guest workload: write a state file and a pre-checkpoint log line, sync.
Task<> write_state(vm::VmInstance* vm, std::uint64_t seed) {
  guestfs::SimpleFs* fs = vm->fs();
  co_await fs->write_file("/data/state.bin", Buffer::pattern(300'000, seed));
  const guestfs::Fd log = fs->open("/data/app.log", true, true);
  co_await fs->write(log, Buffer::from_string("pre-checkpoint line\n"));
  fs->close(log);
  co_await fs->sync();
}

/// Post-checkpoint damage that a restore must roll back.
Task<> damage_state(vm::VmInstance* vm) {
  guestfs::SimpleFs* fs = vm->fs();
  const guestfs::Fd log = fs->open("/data/app.log", false, true);
  co_await fs->write(log, Buffer::from_string("POST-checkpoint line\n"));
  fs->close(log);
  co_await fs->write_file("/data/state.bin", Buffer::pattern(300'000, 999));
  co_await fs->sync();
}

struct VerifyResult {
  bool state_ok = false;
  std::string log_content;
};

Task<> verify_state(vm::VmInstance* vm, std::uint64_t seed,
                    VerifyResult* out) {
  guestfs::SimpleFs* fs = vm->fs();
  const Buffer state = co_await fs->read_file("/data/state.bin");
  out->state_ok = (state == Buffer::pattern(300'000, seed));
  const Buffer log = co_await fs->read_file("/data/app.log");
  out->log_content = log.to_string();
}

class CheckpointRestartTest : public ::testing::TestWithParam<Backend> {};

TEST_P(CheckpointRestartTest, FullLifecycleRestoresStateAndRollsBackIo) {
  const Backend backend = GetParam();
  Cloud cloud(tiny_cfg(backend));
  std::vector<VerifyResult> results(2);

  cloud.run([](Cloud* cl, std::vector<VerifyResult>* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    co_await dep.deploy_and_boot();

    // Guest workload, synced into the virtual disks.
    co_await write_state(&dep.vm(0), 1000);
    co_await write_state(&dep.vm(1), 1001);

    // Global checkpoint.
    GlobalCheckpoint ckpt = co_await dep.checkpoint_all();
    for (const auto& s : ckpt.snapshots) EXPECT_GT(s.bytes, 0u);

    // Post-checkpoint writes that must vanish after restore.
    co_await damage_state(&dep.vm(0));
    co_await damage_state(&dep.vm(1));

    // Catastrophic failure; redeploy on different nodes (shift by 2).
    dep.destroy_all();
    const RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, /*node_offset=*/2);

    co_await verify_state(&dep.vm(0), 1000, &(*out)[0]);
    co_await verify_state(&dep.vm(1), 1001, &(*out)[1]);
  }(&cloud, &results));

  for (const auto& r : results) {
    EXPECT_TRUE(r.state_ok);
    // The marquee property: post-checkpoint I/O has been rolled back.
    EXPECT_EQ(r.log_content, "pre-checkpoint line\n");
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CheckpointRestartTest,
                         ::testing::Values(Backend::BlobCR,
                                           Backend::Qcow2Disk));

TEST(QcowFullIntegrationTest, ResumeRollsDiskBackWithoutReboot) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Full));
  VerifyResult result;
  sim::Duration restart_time = 0;

  cloud.run([](Cloud* cl, VerifyResult* out,
               sim::Duration* rt) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 2000);
    GlobalCheckpoint ckpt = co_await dep.checkpoint_all();
    co_await damage_state(&dep.vm(0));
    dep.destroy_all();

    const sim::Time t0 = cl->simulation().now();
    const RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 2);
    *rt = cl->simulation().now() - t0;

    // qcow2-full resumes without reboot: no mounted fs on the new VM, but
    // the rolled-back disk must contain exactly the checkpointed files.
    auto fs = co_await guestfs::SimpleFs::mount(dep.instance(0).device());
    const Buffer state = co_await fs->read_file("/data/state.bin");
    out->state_ok = (state == Buffer::pattern(300'000, 2000));
    const Buffer log = co_await fs->read_file("/data/app.log");
    out->log_content = log.to_string();
  }(&cloud, &result, &restart_time));

  EXPECT_TRUE(result.state_ok);
  EXPECT_EQ(result.log_content, "pre-checkpoint line\n");
  EXPECT_GT(restart_time, 0);
}

// §3.3: the proxy resumes the VM whether or not the snapshot succeeded.
// qcow2-full ships its new PVFS copy inside the pause; with a file already
// at that copy's path the second snapshot fails, and the VM must still run
// afterwards.
TEST(QcowFullIntegrationTest, FailedSnapshotResumesTheVm) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Full));
  bool threw = false;
  bool paused_after = true;

  cloud.run([](Cloud* cl, bool* threw, bool* paused_after) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 3000);
    const InstanceSnapshot first = co_await dep.snapshot_instance(0);
    std::string next = first.pvfs_path;
    next.replace(next.rfind("_v1"), 3, "_v2");
    pfs::PvfsClient client(*cl->pvfs(), cl->compute_node(0));
    (void)co_await client.create(next);
    try {
      (void)co_await dep.snapshot_instance(0);
    } catch (const pfs::PvfsError&) {
      *threw = true;
    }
    *paused_after = dep.vm(0).paused();
  }(&cloud, &threw, &paused_after));

  EXPECT_TRUE(threw) << "the snapshot onto an occupied path did not fail";
  EXPECT_FALSE(paused_after) << "a failed snapshot left the VM paused";
}

// qcow2-full keeps only its latest PVFS copy. A previous copy that is
// already gone (removed from outside) leaves nothing to remove: the next
// snapshots still succeed, and PVFS holds only the base image and the
// latest copy afterwards.
TEST(QcowFullIntegrationTest, SnapshotsSucceedAfterPreviousCopyVanished) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Full));
  int succeeded = 0;
  std::size_t files = 0;
  std::uint64_t latest_bytes = 0;

  cloud.run([](Cloud* cl, int* succeeded, std::size_t* files,
               std::uint64_t* latest_bytes) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 3100);
    const InstanceSnapshot first = co_await dep.snapshot_instance(0);
    pfs::PvfsClient client(*cl->pvfs(), cl->compute_node(0));
    co_await client.remove(first.pvfs_path);
    std::string latest;
    for (int k = 0; k < 2; ++k) {
      try {
        latest = (co_await dep.snapshot_instance(0)).pvfs_path;
        ++*succeeded;
      } catch (const pfs::PvfsError&) {
      }
    }
    *files = cl->pvfs()->file_count();
    if (*succeeded == 2) *latest_bytes = co_await client.stat_size(latest);
  }(&cloud, &succeeded, &files, &latest_bytes));

  EXPECT_EQ(succeeded, 2) << "a vanished previous copy failed the snapshot";
  EXPECT_EQ(files, 2u) << "PVFS holds more than the base and latest copy";
  EXPECT_GT(latest_bytes, 0u);
}

TEST(SuccessiveCheckpointTest, BlobcrShipsDeltasQcowShipsEverything) {
  // Two clouds, same workload: three checkpoints with a small dirty set in
  // between. BlobCR's 2nd/3rd snapshots stay small; qcow2-disk re-ships the
  // whole (growing) container every time.
  std::vector<std::uint64_t> blobcr_sizes;
  std::vector<std::uint64_t> qcow_sizes;

  for (const Backend backend : {Backend::BlobCR, Backend::Qcow2Disk}) {
    Cloud cloud(tiny_cfg(backend));
    auto* sizes =
        backend == Backend::BlobCR ? &blobcr_sizes : &qcow_sizes;
    cloud.run([](Cloud* cl, std::vector<std::uint64_t>* out) -> Task<> {
      co_await cl->provision_base_image();
      Deployment dep(*cl, 1);
      co_await dep.deploy_and_boot();
      for (int round = 0; round < 3; ++round) {
        guestfs::SimpleFs* fs = dep.vm(0).fs();
        co_await fs->write_file(
            "/data/state.bin",
            Buffer::pattern(400'000, static_cast<std::uint64_t>(round)));
        co_await fs->sync();
        const InstanceSnapshot snap = co_await dep.snapshot_instance(0);
        out->push_back(snap.bytes);
      }
    }(&cloud, sizes));
  }

  ASSERT_EQ(blobcr_sizes.size(), 3u);
  ASSERT_EQ(qcow_sizes.size(), 3u);
  // BlobCR: first checkpoint carries boot noise + state; later ones only the
  // rewritten state (and FS metadata churn).
  EXPECT_LT(blobcr_sizes[1], blobcr_sizes[0]);
  // qcow2-disk containers only grow.
  EXPECT_GE(qcow_sizes[1], qcow_sizes[0]);
  EXPECT_GE(qcow_sizes[2], qcow_sizes[1]);
  // And each later BlobCR snapshot is far smaller than the qcow copy.
  EXPECT_LT(blobcr_sizes[2] * 2, qcow_sizes[2]);
}

TEST(FailureInjectionTest, ReplicatedRepositorySurvivesNodeLoss) {
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/2));
  VerifyResult result;

  cloud.run([](Cloud* cl, VerifyResult* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 3000);
    GlobalCheckpoint ckpt = co_await dep.checkpoint_all();

    // Fail-stop the instance's node: VM dies AND the data provider on that
    // node loses all its chunks.
    dep.fail_instance(0);
    const RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 1);
    co_await verify_state(&dep.vm(0), 3000, out);
  }(&cloud, &result));

  EXPECT_TRUE(result.state_ok);
  EXPECT_EQ(result.log_content, "pre-checkpoint line\n");
}

TEST(FailureInjectionTest, UnreplicatedRepositoryLosesData) {
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/1));
  bool restore_failed = false;

  cloud.run([](Cloud* cl, bool* failed) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 4000);
    GlobalCheckpoint ckpt = co_await dep.checkpoint_all();
    dep.fail_instance(0);
    bool threw = false;
    try {
      const RestartPlan plan =
          cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
      co_await dep.restart_from(plan, 1);
      VerifyResult r;
      co_await verify_state(&dep.vm(0), 4000, &r);
      threw = !r.state_ok;
    } catch (const std::exception&) {
      threw = true;
    }
    *failed = threw;
  }(&cloud, &restore_failed));

  // With replication 1, the snapshot chunks on the failed node are gone.
  EXPECT_TRUE(restore_failed);
}

TEST(DeploymentTest, BootFetchesOnlyHotContent) {
  // Lazy transfer: booting reads far less than the full image.
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  std::uint64_t fetched = 0;
  std::uint64_t image = 0;

  cloud.run([](Cloud* cl, std::uint64_t* f, std::uint64_t* img) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    co_await dep.deploy_and_boot();
    *f = dep.source_bytes().remote();
    *img = cl->image_size();
  }(&cloud, &fetched, &image));

  EXPECT_GT(fetched, 0u);
  EXPECT_LT(fetched, image);  // per-instance average is well under the image
}

TEST(DeploymentTest, PlacementRefusesMoreInstancesThanComputeNodes) {
  // Regression: compute_node() used to wrap `i % compute_nodes`, silently
  // co-locating two instances on one node — a single node failure would
  // take out two "independent" ranks and their caches. Oversubscription is
  // now refused at construction; a full-width deployment still places.
  Cloud cloud(tiny_cfg(Backend::BlobCR));  // 4 compute nodes
  EXPECT_THROW(Deployment(cloud, 5), std::invalid_argument);
  const Deployment dep(cloud, 4);
  EXPECT_EQ(dep.size(), 4u);
}

TEST(DeploymentTest, SnapshotMappingIsRecorded) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  GlobalCheckpoint collected;

  cloud.run([](Cloud* cl, GlobalCheckpoint* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 1);
    co_await write_state(&dep.vm(1), 2);
    (void)co_await dep.checkpoint_all();
    *out = dep.collect_last_snapshots();
  }(&cloud, &collected));

  ASSERT_EQ(collected.snapshots.size(), 2u);
  EXPECT_NE(collected.snapshots[0].image, collected.snapshots[1].image);
  for (const auto& s : collected.snapshots) {
    EXPECT_NE(s.image, 0u);
    EXPECT_GE(s.version, 2u);  // v1 = clone, v2+ = commits
  }
}

// A driver blocked when the event queue drains fails with an error that
// names the unfinished processes: here a guest waiting on an Event nobody
// sets, and the driver joining it.
TEST(CloudTest, StallNamesTheUnfinishedProcesses) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  sim::Event never(cloud.simulation());
  std::string what;
  try {
    cloud.run([](Cloud* cl, sim::Event* never) -> Task<> {
      sim::ProcessPtr guest = cl->simulation().spawn(
          "stuck-guest",
          [](sim::Event* e) -> Task<> { co_await e->wait(); }(never));
      co_await guest->join();
    }(&cloud, &never));
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("simulation stalled"), std::string::npos) << what;
  EXPECT_NE(what.find("stuck-guest"), std::string::npos) << what;
  EXPECT_NE(what.find("driver"), std::string::npos) << what;
}

}  // namespace
}  // namespace blobcr::core
