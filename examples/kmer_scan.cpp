// k-mer scan: lazy transfer of a shared read-only reference at runtime.
//
// A reference sequence is baked into the base VM image once; every instance
// shares it through its own virtual disk, and the mirror device fetches
// reference chunks from the checkpoint repository only when the scan reaches
// them (§3.1.4's lazy transfer, applied to application data rather than just
// boot files). The run checkpoints halfway, fail-stops, restarts on fresh
// nodes and finishes the scan — the final sketch table is bit-identical to
// an uninterrupted run's, and the fetch counters show that neither the
// original boot nor the restart ever shipped the whole image.
//
// Build & run:  ./build/examples/kmer_scan
#include <cstdio>

#include "apps/kmer.h"
#include "core/blobcr.h"
#include "sim/sim.h"

using namespace blobcr;
using sim::Task;

namespace {

void banner(core::Cloud& cloud, const char* msg) {
  std::printf("[t=%8.3fs] %s\n", sim::to_seconds(cloud.simulation().now()),
              msg);
}

apps::KmerConfig kmer_config() {
  apps::KmerConfig cfg;
  cfg.reference_bytes = 8 * common::kMB;
  cfg.window_bytes = 512 * 1024;
  cfg.table_bytes = 256 * 1024;
  cfg.ranks = 2;
  cfg.real_data = true;
  return cfg;
}

}  // namespace

int main() {
  const apps::KmerConfig kcfg = kmer_config();
  core::CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  kcfg.add_reference_to(cfg.os);  // the shared input ships with the image
  cfg.vm.os_ram_bytes = 32 * common::kMB;
  core::Cloud cloud(cfg);

  struct Out {
    std::uint64_t boot_fetch = 0;
    std::uint64_t half_fetch = 0;
    std::uint64_t restart_fetch = 0;
    std::uint64_t image_size = 0;
    bool restore_ok = true;
    std::uint64_t digests[2] = {0, 0};
  } out;

  cloud.run([](core::Cloud* cl, apps::KmerConfig kcfg, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    out->image_size = cl->image_size();
    core::Deployment dep(*cl, 2);
    cr::Session session(dep);
    banner(*cl, "deploying 2 VMs; the 8 MB reference ships with the image");
    co_await dep.deploy_and_boot();
    out->boot_fetch = dep.source_bytes().remote();

    sim::Barrier phase(cl->simulation(), 3);
    for (std::size_t i = 0; i < 2; ++i) {
      dep.vm(i).start_guest("kmer", [&dep, i, kcfg,
                                     &phase](vm::GuestProcess& gp) -> Task<> {
        apps::KmerRank scan(gp, kcfg, static_cast<int>(i));
        co_await scan.init();
        const std::uint64_t half =
            (kcfg.slice_begin(static_cast<int>(i)) + scan.slice_end()) / 2;
        co_await scan.scan_until(half);
        (void)co_await scan.write_checkpoint();
        co_await gp.vm().fs()->sync();
        (void)co_await dep.snapshot_instance(i);
        co_await phase.arrive_and_wait();
      });
    }
    co_await phase.arrive_and_wait();
    for (std::size_t i = 0; i < 2; ++i) co_await dep.vm(i).join_guests();
    out->half_fetch = dep.source_bytes().remote();
    banner(*cl, "half-scan done, checkpointed (sketch table + scan cursor)");

    (void)co_await session.commit_last("half-scan");
    dep.destroy_all();
    banner(*cl, "fail-stop");
    (void)co_await session.restart(cr::Selector::latest(), {.node_offset = 2});
    banner(*cl, "restarted on fresh nodes (lazy fetch, no full image copy)");

    sim::Barrier phase2(cl->simulation(), 3);
    for (std::size_t i = 0; i < 2; ++i) {
      dep.vm(i).start_guest("kmer2", [i, kcfg, out,
                                      &phase2](vm::GuestProcess& gp) -> Task<> {
        apps::KmerRank scan(gp, kcfg, static_cast<int>(i));
        co_await scan.init();
        out->restore_ok =
            out->restore_ok && co_await scan.restore_checkpoint();
        co_await scan.scan_all();
        out->digests[i] = scan.state_digest();
        co_await phase2.arrive_and_wait();
      });
    }
    co_await phase2.arrive_and_wait();
    for (std::size_t i = 0; i < 2; ++i) co_await dep.vm(i).join_guests();
    out->restart_fetch = dep.source_bytes().remote();
    banner(*cl, "scan finished after restart");
  }(&cloud, kcfg, &out));

  std::printf("\nimage size:                  %8.1f MB\n",
              static_cast<double>(out.image_size) / 1e6);
  std::printf("remote bytes at boot:        %8.1f MB per run\n",
              static_cast<double>(out.boot_fetch) / 1e6);
  std::printf("remote bytes after half-scan:%8.1f MB\n",
              static_cast<double>(out.half_fetch) / 1e6);
  std::printf("remote bytes after restart:  %8.1f MB\n",
              static_cast<double>(out.restart_fetch) / 1e6);
  const bool lazy = out.half_fetch < 2 * out.image_size &&
                    out.restart_fetch < 2 * out.image_size;
  std::printf("\nrestore verified: %s; scan resumed and finished: %s\n",
              out.restore_ok ? "YES" : "NO",
              (out.digests[0] != 0 && out.digests[1] != 0) ? "YES" : "NO");
  std::printf("never shipped the full image (2 VMs x %zu MB): %s\n",
              static_cast<std::size_t>(out.image_size / 1'000'000),
              lazy ? "YES" : "NO");
  return out.restore_ok && lazy ? 0 : 1;
}
