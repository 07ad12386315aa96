// VM migration via disk snapshots (§3.1.3 remark: incremental snapshots
// "are much easier to migrate"): an instance's virtual disk state moves to
// another compute node through the checkpoint repository, the guest OS
// reboots (or resumes, for full-VM snapshots), and the incremental
// checkpoint chain continues on the new node.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/blobcr.h"
#include "cr/remap.h"
#include "sim/sim.h"

namespace blobcr::core {
namespace {

using common::Buffer;
using sim::Task;

CloudConfig tiny_cfg(Backend backend) {
  CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.replication = 1;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

class MigrationTest : public ::testing::TestWithParam<Backend> {};

TEST_P(MigrationTest, MovesDiskStateToTargetNode) {
  Cloud cloud(tiny_cfg(GetParam()));
  struct Out {
    net::NodeId before = 0, after = 0;
    sim::Duration downtime = 0;
    bool synced_survives = false;
    bool unsynced_lost = false;
  } out;

  cloud.run([](Cloud* cl, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    out->before = dep.instance(0).node;

    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/keep.bin", Buffer::pattern(200'000, 7));
    co_await fs->sync();
    // Written but never synced: page-cache data a snapshot cannot see.
    co_await fs->write_file("/data/drop.bin", Buffer::pattern(50'000, 8));

    const net::NodeId target = (out->before + 3) % 6;
    out->downtime = co_await dep.migrate_instance(0, target);
    out->after = dep.instance(0).node;

    guestfs::SimpleFs* fs2 = dep.vm(0).fs();
    const Buffer kept = co_await fs2->read_file("/data/keep.bin");
    out->synced_survives = (kept == Buffer::pattern(200'000, 7));
    out->unsynced_lost = !fs2->exists("/data/drop.bin");
  }(&cloud, &out));

  EXPECT_NE(out.after, out.before);
  EXPECT_GT(out.downtime, 0);
  EXPECT_TRUE(out.synced_survives);
  EXPECT_TRUE(out.unsynced_lost);
}

TEST_P(MigrationTest, CheckpointChainContinuesAfterMigration) {
  Cloud cloud(tiny_cfg(GetParam()));
  struct Out {
    std::uint64_t post_migration_snapshot_bytes = 0;
    bool restored = false;
  } out;

  cloud.run([](Cloud* cl, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();

    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/a.bin", Buffer::pattern(300'000, 1));
    co_await fs->sync();
    (void)co_await dep.snapshot_instance(0);

    co_await dep.migrate_instance(0, (dep.instance(0).node + 2) % 6);

    // New writes on the new node, then another snapshot: the incremental
    // chain picks up where the pre-migration snapshot left off.
    guestfs::SimpleFs* fs2 = dep.vm(0).fs();
    co_await fs2->write_file("/data/b.bin", Buffer::pattern(100'000, 2));
    co_await fs2->sync();
    const InstanceSnapshot snap = co_await dep.snapshot_instance(0);
    out->post_migration_snapshot_bytes = snap.bytes;

    // Restart from that snapshot elsewhere and verify both generations.
    GlobalCheckpoint ckpt = dep.collect_last_snapshots();
    dep.destroy_all();
    const RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 4);
    guestfs::SimpleFs* fs3 = dep.vm(0).fs();
    const Buffer a = co_await fs3->read_file("/data/a.bin");
    const Buffer b = co_await fs3->read_file("/data/b.bin");
    out->restored = (a == Buffer::pattern(300'000, 1)) &&
                    (b == Buffer::pattern(100'000, 2));
  }(&cloud, &out));

  EXPECT_TRUE(out.restored);
  EXPECT_GT(out.post_migration_snapshot_bytes, 0u);
  // Only BlobCR snapshots are incremental; the baselines re-ship their whole
  // container (qcow2-full additionally carries the guest RAM).
  if (GetParam() == Backend::BlobCR) {
    EXPECT_LT(out.post_migration_snapshot_bytes, 30 * common::kMB);
  }
}

TEST_P(MigrationTest, SameNodeMigrationIsAllowed) {
  Cloud cloud(tiny_cfg(GetParam()));
  bool ok = false;
  cloud.run([](Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/x.bin", Buffer::pattern(64'000, 3));
    co_await fs->sync();
    const net::NodeId node = dep.instance(0).node;
    (void)co_await dep.migrate_instance(0, node);
    EXPECT_EQ(dep.instance(0).node, node);
    const Buffer x = co_await dep.vm(0).fs()->read_file("/data/x.bin");
    *ok = (x == Buffer::pattern(64'000, 3));
  }(&cloud, &ok));
  EXPECT_TRUE(ok);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, MigrationTest,
                         ::testing::Values(Backend::BlobCR,
                                           Backend::Qcow2Disk,
                                           Backend::Qcow2Full),
                         [](const auto& info) {
                           switch (info.param) {
                             case Backend::BlobCR:
                               return "BlobCR";
                             case Backend::Qcow2Disk:
                               return "Qcow2Disk";
                             case Backend::Qcow2Full:
                               return "Qcow2Full";
                           }
                           return "Unknown";
                         });

TEST(MigrationTest2, SequentialMigrationsHopAcrossNodes) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  struct Out {
    std::vector<net::NodeId> hops;
    bool ok = false;
  } out;
  cloud.run([](Cloud* cl, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/x.bin", Buffer::pattern(128'000, 9));
    co_await fs->sync();
    for (int hop = 1; hop <= 3; ++hop) {
      const net::NodeId target = (dep.instance(0).node + 1) % 6;
      co_await dep.migrate_instance(0, target);
      out->hops.push_back(dep.instance(0).node);
    }
    const Buffer x = co_await dep.vm(0).fs()->read_file("/data/x.bin");
    out->ok = (x == Buffer::pattern(128'000, 9));
  }(&cloud, &out));
  EXPECT_EQ(out.hops.size(), 3u);
  EXPECT_TRUE(out.ok);
}

TEST(MigrationTest2, MigrationKeepsOtherInstancesUntouched) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  struct Out {
    bool moved_ok = false;
    bool bystander_ok = false;
    net::NodeId bystander_node_before = 0, bystander_node_after = 0;
  } out;
  cloud.run([](Cloud* cl, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < 2; ++i) {
      guestfs::SimpleFs* fs = dep.vm(i).fs();
      co_await fs->write_file("/data/x.bin",
                              Buffer::pattern(100'000, 10 + i));
      co_await fs->sync();
    }
    out->bystander_node_before = dep.instance(1).node;
    co_await dep.migrate_instance(0, (dep.instance(0).node + 3) % 6);
    out->bystander_node_after = dep.instance(1).node;
    const Buffer a = co_await dep.vm(0).fs()->read_file("/data/x.bin");
    const Buffer b = co_await dep.vm(1).fs()->read_file("/data/x.bin");
    out->moved_ok = (a == Buffer::pattern(100'000, 10));
    out->bystander_ok = (b == Buffer::pattern(100'000, 11));
  }(&cloud, &out));
  EXPECT_TRUE(out.moved_ok);
  EXPECT_TRUE(out.bystander_ok);
  EXPECT_EQ(out.bystander_node_before, out.bystander_node_after);
}

}  // namespace
}  // namespace blobcr::core
