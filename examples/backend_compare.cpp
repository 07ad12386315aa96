// backend_compare: a miniature of the paper's evaluation — run the same
// synthetic checkpoint-restart workload on all three backends (BlobCR,
// qcow2-disk over PVFS, qcow2-full over PVFS) and print a comparison table.
//
// Build & run:  ./build/examples/backend_compare
#include <cstdio>

#include "apps/scenarios.h"
#include "core/blobcr.h"

using namespace blobcr;

namespace {

struct Row {
  const char* name;
  core::Backend backend;
  apps::CkptMode mode;
};

}  // namespace

int main() {
  constexpr std::size_t kInstances = 6;
  constexpr std::uint64_t kBuffer = 20 * common::kMB;

  const Row rows[] = {
      {"BlobCR-app", core::Backend::BlobCR, apps::CkptMode::AppLevel},
      {"BlobCR-blcr", core::Backend::BlobCR, apps::CkptMode::ProcessBlcr},
      {"qcow2-disk-app", core::Backend::Qcow2Disk, apps::CkptMode::AppLevel},
      {"qcow2-disk-blcr", core::Backend::Qcow2Disk,
       apps::CkptMode::ProcessBlcr},
      {"qcow2-full", core::Backend::Qcow2Full, apps::CkptMode::FullVm},
  };

  std::printf("%zu instances, %.0f MB buffer each, checkpoint + restart\n\n",
              kInstances, static_cast<double>(kBuffer) / 1e6);
  std::printf("%-18s %12s %12s %16s %12s\n", "approach", "ckpt (s)",
              "restart (s)", "snapshot MB/VM", "verified");

  bool all_verified = true;
  for (const Row& row : rows) {
    core::CloudConfig cfg;
    cfg.compute_nodes = 12;
    cfg.metadata_nodes = 3;
    cfg.backend = row.backend;
    cfg.os = vm::GuestOsConfig::test_tiny();
    cfg.vm.os_ram_bytes = 40 * common::kMB;
    core::Cloud cloud(cfg);

    apps::SyntheticRun run;
    run.instances = kInstances;
    run.buffer_bytes = kBuffer;
    run.real_data = (row.mode != apps::CkptMode::FullVm);
    run.do_restart = true;
    const apps::RunResult result = apps::run_synthetic(cloud, run, row.mode);

    std::printf("%-18s %12.2f %12.2f %16.2f %12s\n", row.name,
                sim::to_seconds(result.checkpoint_times.at(0)),
                sim::to_seconds(result.restart_time),
                static_cast<double>(result.snapshot_bytes_per_vm.at(0)) / 1e6,
                result.verified ? "yes" : "NO");
    all_verified = all_verified && result.verified;
  }
  std::printf(
      "\nExpected shape (paper, Figs 2-4): qcow2-full pays the ~RAM-sized\n"
      "snapshot; the disk-snapshot approaches ship only files + FS noise;\n"
      "BlobCR restarts faster thanks to lazy fetch + prefetching.\n");
  return all_verified ? 0 : 1;
}
