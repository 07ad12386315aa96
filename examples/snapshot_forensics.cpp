// snapshot_forensics: the paper's §3.2 side feature — because checkpoint
// images are first-class blobs (clone + shadowing) *and* checkpoints are
// first-class catalog records, a user can list every checkpoint a
// repository holds (even ones this driver never took), mount any version
// OFFLINE (no VM), inspect the guest's files, and diff two checkpoint
// generations of the same instance.
//
// Build & run:  ./build/examples/snapshot_forensics
#include <cstdio>
#include <string>

#include "core/blobcr.h"

using namespace blobcr;
using common::Buffer;
using sim::Task;

namespace {

/// Mounts one snapshot version read-only through a fresh mirror device.
Task<std::unique_ptr<guestfs::SimpleFs>> mount_snapshot(
    core::Cloud* cl, core::MirrorDevice** out_dev, blob::BlobId image,
    blob::VersionId version) {
  core::MirrorDevice::Config mcfg;
  mcfg.capacity = cl->image_size();
  const net::NodeId node = cl->compute_node(3);
  auto* dev = new core::MirrorDevice(
      *cl->federation(), node, cl->disk(node), cl->next_disk_stream(3), image,
      version, mcfg, *cl->chunk_cache(node));
  *out_dev = dev;
  co_return co_await guestfs::SimpleFs::mount(*dev);
}

}  // namespace

int main() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  core::Cloud cloud(cfg);

  cloud.run([](core::Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, 1);
    cr::Session session(dep);
    co_await dep.deploy_and_boot();

    // Two application generations -> two cataloged checkpoints.
    guestfs::SimpleFs* fs = dep.vm(0).fs();
    co_await fs->write_file("/data/results.txt",
                            Buffer::from_string("generation 1 results\n"));
    co_await fs->sync();
    (void)co_await session.checkpoint("gen1");

    co_await fs->write_file("/data/results.txt",
                            Buffer::from_string("generation 2 results\n"));
    co_await fs->write_file("/data/extra.dat", Buffer::pattern(64 * 1024, 7));
    co_await fs->sync();
    (void)co_await session.checkpoint("gen2");

    // Forensic listing through a FRESH catalog — only repository state, as
    // a new driver (or an auditor) after total loss would see it.
    cr::Catalog catalog(*cl);
    const std::vector<cr::CheckpointRecord> records =
        co_await catalog.list();
    std::printf("checkpoint catalog (%zu records):\n", records.size());
    for (const cr::CheckpointRecord& rec : records) {
      std::printf("  #%llu  parent=%llu  state=%-10s tag=%-6s %zu "
                  "instance(s), %.1f KB\n",
                  static_cast<unsigned long long>(rec.id),
                  static_cast<unsigned long long>(rec.parent),
                  cr::record_state_name(rec.state),
                  rec.tag.empty() ? "-" : rec.tag.c_str(),
                  rec.snapshots.size(),
                  static_cast<double>(rec.total_bytes()) / 1e3);
    }
    std::printf("\n");

    // Offline inspection: no VM involved, snapshots mounted like disks.
    for (const cr::CheckpointRecord& rec : records) {
      const core::InstanceSnapshot& snap = rec.snapshots.at(0);
      core::MirrorDevice* dev = nullptr;
      auto snap_fs = co_await mount_snapshot(cl, &dev, snap.image,
                                             snap.version);
      const Buffer results = co_await snap_fs->read_file("/data/results.txt");
      std::printf("#%llu (%s) :/data/results.txt -> %s",
                  static_cast<unsigned long long>(rec.id), rec.tag.c_str(),
                  results.to_string().c_str());
      std::printf("#%llu :/data contains:",
                  static_cast<unsigned long long>(rec.id));
      for (const std::string& name : snap_fs->readdir("/data")) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n\n");
      snap_fs.reset();
      delete dev;
    }

    std::printf("note: the running VM kept executing; offline mounts read "
                "shadowed versions,\nnever disturbing the instance or later "
                "checkpoints.\n");
  }(&cloud));
  return 0;
}
