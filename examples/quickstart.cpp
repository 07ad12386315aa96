// Quickstart: the smallest end-to-end BlobCR run.
//
// Provisions a small cloud, deploys two VM instances from a base image,
// runs a guest workload that writes files, takes a global checkpoint
// through the cr::Session control plane (node-local proxies underneath),
// destroys everything (simulated failure), restarts from the cataloged
// checkpoint on different nodes, and verifies that
//   (a) the checkpointed state is back, bit for bit, and
//   (b) file-system writes made after the checkpoint were rolled back.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/blobcr.h"

using namespace blobcr;
using common::Buffer;
using sim::Task;

namespace {

void banner(const core::Cloud& cloud, const char* msg) {
  std::printf("[t=%8.3fs] %s\n", sim::to_seconds(cloud.now()), msg);
}

}  // namespace

int main() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();  // small image with real content
  cfg.vm.os_ram_bytes = 32 * common::kMB;
  core::Cloud cloud(cfg);

  bool state_ok = false;
  std::string log_after;

  cloud.run([](core::Cloud* cl, bool* ok, std::string* log) -> Task<> {
    banner(*cl, "provisioning base image (build + upload to BlobSeer)");
    co_await cl->provision_base_image();

    core::Deployment dep(*cl, 2);
    cr::Session session(dep);
    banner(*cl, "multi-deploying 2 VM instances (lazy fetch + boot)");
    co_await dep.deploy_and_boot();
    banner(*cl, "booted");

    // Guest workload: one state file + a log line, synced to the disk.
    for (std::size_t i = 0; i < dep.size(); ++i) {
      guestfs::SimpleFs* fs = dep.vm(i).fs();
      co_await fs->write_file("/data/state.bin", Buffer::pattern(1'000'000, i));
      const guestfs::Fd fd = fs->open("/data/app.log", true, true);
      co_await fs->write(fd, Buffer::from_string("committed work\n"));
      fs->close(fd);
      co_await fs->sync();
    }
    banner(*cl, "guest state written and synced");

    const cr::CheckpointRecord rec = co_await session.checkpoint("quickstart");
    std::printf("             checkpoint %llu committed: %zu instances, "
                "%.2f MB total (incremental snapshots)\n",
                static_cast<unsigned long long>(rec.id), rec.snapshots.size(),
                static_cast<double>(rec.total_bytes()) / 1e6);

    // Post-checkpoint I/O that the restore must roll back.
    for (std::size_t i = 0; i < dep.size(); ++i) {
      guestfs::SimpleFs* fs = dep.vm(i).fs();
      const guestfs::Fd fd = fs->open("/data/app.log", false, true);
      co_await fs->write(fd, Buffer::from_string("UNCOMMITTED work\n"));
      fs->close(fd);
      co_await fs->sync();
    }
    banner(*cl, "post-checkpoint writes made (will be rolled back)");

    dep.destroy_all();
    banner(*cl, "all instances failed (fail-stop)");

    // The catalog — repository state, not driver memory — names the last
    // complete global checkpoint; restart selects it.
    (void)co_await session.restart(cr::Selector::latest(), {.node_offset = 2});
    banner(*cl, "restarted from the cataloged checkpoint on different nodes");

    const Buffer state = co_await dep.vm(0).fs()->read_file("/data/state.bin");
    *ok = (state == Buffer::pattern(1'000'000, 0));
    const Buffer logbuf = co_await dep.vm(0).fs()->read_file("/data/app.log");
    *log = logbuf.to_string();
  }(&cloud, &state_ok, &log_after));

  std::printf("\nstate restored intact: %s\n", state_ok ? "YES" : "NO");
  std::printf("log after restart: \"%s\" (the uncommitted line is gone: %s)\n",
              log_after.c_str(),
              log_after == "committed work\n" ? "YES" : "NO");
  return state_ok && log_after == "committed work\n" ? 0 : 1;
}
