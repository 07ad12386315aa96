// Reduction pipeline demo: successive checkpoints with content-addressed
// dedup, zero suppression and compression on the commit path.
//
// Two VM instances write the same application state (plus some zero pages
// and some rank-private data), checkpoint, mutate a little, checkpoint
// again. With the reduction pipeline on, the second rank's identical state
// dedups against the first rank's chunks, the second round dedups against
// the first round, zero pages never ship — and a restart still restores
// every byte.
//
// Build & run:  ./build/example_reduction_pipeline
#include <cstdio>

#include "core/blobcr.h"
#include "reduce/reducer.h"

using namespace blobcr;
using common::Buffer;
using sim::Task;

int main() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 32 * common::kMB;
  cfg.reduction.enabled = true;
  cfg.reduction.compression = true;
  core::Cloud cloud(cfg);

  bool ok = false;
  reduce::ReductionStats stats;

  cloud.run([](core::Cloud* cl, bool* ok,
               reduce::ReductionStats* stats) -> Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, 2);
    cr::Session session(dep);
    co_await dep.deploy_and_boot();

    const Buffer shared = Buffer::pattern(2'000'000, 7);  // same on both VMs
    for (int round = 0; round < 2; ++round) {
      dep.reducer()->begin_epoch();
      for (std::size_t i = 0; i < dep.size(); ++i) {
        guestfs::SimpleFs* fs = dep.vm(i).fs();
        if (round == 0) {
          co_await fs->write_file("/data/shared.bin", shared);
          co_await fs->write_file("/data/freed.bin",
                                  Buffer::zeros(1'000'000));
          co_await fs->write_file(
              "/data/private.bin",
              Buffer::pattern(500'000, 100 + i * 10 + round));
        } else {
          // In-place rewrites keep the on-disk layout stable, so the
          // unchanged shared state dedups against the previous snapshot
          // version (write_file would re-allocate blocks and shift the
          // chunk contents — the fixed-block dedup alignment problem).
          const guestfs::Fd sfd = fs->open("/data/shared.bin");
          co_await fs->pwrite(sfd, 0, shared);
          fs->close(sfd);
          const guestfs::Fd pfd = fs->open("/data/private.bin");
          co_await fs->pwrite(
              pfd, 0, Buffer::pattern(500'000, 100 + i * 10 + round));
          fs->close(pfd);
        }
        co_await fs->sync();
      }
      // Snapshot the ranks one after the other: the first rank's commit
      // populates the shared digest index, the second rank's identical
      // dirty chunks dedup against it (cross-rank reduction).
      for (std::size_t i = 0; i < dep.size(); ++i) {
        (void)co_await dep.snapshot_instance(i);
      }
      (void)co_await session.commit_last();
      const reduce::ReductionStats ep = dep.reducer()->epoch_stats();
      std::printf(
          "checkpoint %d: %.2f MB raw -> %.2f MB shipped "
          "(%zu dedup hits, %zu zero chunks)\n",
          round + 1, static_cast<double>(ep.raw_bytes) / 1e6,
          static_cast<double>(ep.shipped_bytes) / 1e6,
          static_cast<std::size_t>(ep.dedup_hits),
          static_cast<std::size_t>(ep.zero_chunks));
      if (round == 1) {
        *stats = dep.reducer()->stats();
        // Full restart from the reduced snapshots: every byte must be back.
        dep.destroy_all();
        (void)co_await session.restart(cr::Selector::latest(),
                                       {.node_offset = 2});
        const Buffer back =
            co_await dep.vm(1).fs()->read_file("/data/shared.bin");
        const Buffer zero_back =
            co_await dep.vm(1).fs()->read_file("/data/freed.bin");
        *ok = (back == shared) && zero_back.all_zero() &&
              zero_back.size() == 1'000'000;
      }
    }
  }(&cloud, &ok, &stats));

  std::printf("\noverall: %.2f MB raw, %.2f MB shipped (%.0f%%), "
              "dedup hit rate %.0f%%\n",
              static_cast<double>(stats.raw_bytes) / 1e6,
              static_cast<double>(stats.shipped_bytes) / 1e6,
              100.0 * stats.shipped_ratio(),
              100.0 * stats.dedup_hit_rate());
  std::printf("restart from reduced snapshots restored state: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
