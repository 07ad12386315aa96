// cm1_hurricane: the paper's real-life case study as a library user would
// run it — a CM1-style 3D atmospheric simulation (idealized hurricane,
// §4.4) on four VMs with four MPI ranks each, with periodic coordinated
// checkpoints, a mid-run node failure, and recovery from the last
// checkpoint. Real numerics (small grid), digest-verified restore.
//
// Build & run:  ./build/examples/cm1_hurricane
#include <cstdio>
#include <memory>
#include <vector>

#include "apps/cm1.h"
#include "core/blobcr.h"

using namespace blobcr;
using sim::Task;

namespace {

constexpr std::size_t kVms = 2;
constexpr int kRanksPerVm = 2;
constexpr int kRanks = static_cast<int>(kVms) * kRanksPerVm;
constexpr int kSegment = 4;   // iterations between checkpoints
constexpr int kSegments = 2;  // checkpoints before the failure

apps::Cm1Config hurricane_cfg() {
  apps::Cm1Config cfg;
  cfg.nx = 12;
  cfg.ny = 12;
  cfg.nz = 6;
  cfg.nvars = 4;
  cfg.px = 2;
  cfg.py = 2;
  cfg.real_data = true;
  cfg.iteration_compute = 200 * sim::kMillisecond;
  cfg.summary_interval = 4;
  cfg.summary_bytes = 64 * 1024;
  return cfg;
}

Task<> rank_body(core::Deployment* dep, std::size_t vm_index, int rank,
                 std::vector<std::uint64_t>* digests,
                 vm::GuestProcess* gp) {
  dep->mpi().register_rank(rank, gp);
  apps::Cm1Rank cm1(*gp, dep->mpi().comm(rank), hurricane_cfg(), rank);
  co_await cm1.init();
  for (int seg = 0; seg < kSegments; ++seg) {
    co_await cm1.run(kSegment);
    mpi::CoordinatedHooks hooks;
    hooks.vm_leader = (rank % kRanksPerVm == 0);
    hooks.fs = gp->vm().fs();
    apps::Cm1Rank* cm1p = &cm1;
    hooks.dump = [cm1p]() -> Task<> {
      (void)co_await cm1p->write_checkpoint();
    };
    hooks.request_disk_snapshot = [dep, vm_index]() -> Task<> {
      (void)co_await dep->snapshot_instance(vm_index);
    };
    co_await mpi::coordinated_checkpoint(dep->mpi().comm(rank), hooks);
    if (rank == 0) {
      std::printf("[t=%8.3fs] checkpoint %d done (iteration %d)\n",
                  sim::to_seconds(gp->vm().simulation().now()), seg + 1,
                  cm1.current_iteration());
    }
  }
  (*digests)[static_cast<std::size_t>(rank)] = cm1.state_digest();
}

Task<> recovery_body(core::Deployment* dep, int rank,
                     std::vector<std::uint64_t>* digests, bool* all_ok,
                     vm::GuestProcess* gp) {
  dep->mpi().rebind_rank(rank, gp);
  apps::Cm1Rank cm1(*gp, dep->mpi().comm(rank), hurricane_cfg(), rank);
  const bool ok = co_await cm1.restore_checkpoint();
  const bool digest_ok =
      cm1.state_digest() == (*digests)[static_cast<std::size_t>(rank)];
  if (!(ok && digest_ok)) *all_ok = false;
  // Science continues from the restored iteration.
  co_await cm1.run(2);
}

}  // namespace

int main() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.replication = 2;  // survive the node failure below
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 32 * common::kMB;
  core::Cloud cloud(cfg);

  bool recovered = true;

  cloud.run([](core::Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, kVms);
    cr::Session session(dep);
    co_await dep.deploy_and_boot();
    dep.mpi().set_size(kRanks);
    std::printf("[t=%8.3fs] %d CM1 ranks on %zu VMs booted\n",
                sim::to_seconds(cl->simulation().now()), kRanks, kVms);

    auto digests = std::make_shared<std::vector<std::uint64_t>>(kRanks, 0);
    for (std::size_t i = 0; i < kVms; ++i) {
      for (int k = 0; k < kRanksPerVm; ++k) {
        const int rank = static_cast<int>(i) * kRanksPerVm + k;
        core::Deployment* dp = &dep;
        dep.vm(i).start_guest(
            "cm1", [dp, i, rank, digests](vm::GuestProcess& gp) -> Task<> {
              co_await rank_body(dp, i, rank, digests.get(), &gp);
            });
      }
    }
    for (std::size_t i = 0; i < kVms; ++i) co_await dep.vm(i).join_guests();

    (void)co_await session.commit_last("iteration-20");
    std::printf("[t=%8.3fs] NODE FAILURE: losing instance 0's machine "
                "(VM + its data provider)\n",
                sim::to_seconds(cl->simulation().now()));
    dep.fail_instance(0);
    dep.destroy_all();

    (void)co_await session.restart(cr::Selector::latest(),
                                   {.node_offset = kVms + 1});
    std::printf("[t=%8.3fs] restarted from checkpoint on fresh nodes\n",
                sim::to_seconds(cl->simulation().now()));

    for (std::size_t i = 0; i < kVms; ++i) {
      for (int k = 0; k < kRanksPerVm; ++k) {
        const int rank = static_cast<int>(i) * kRanksPerVm + k;
        core::Deployment* dp = &dep;
        dep.vm(i).start_guest(
            "recover", [dp, rank, digests, ok](vm::GuestProcess& gp)
                           -> Task<> {
              co_await recovery_body(dp, rank, digests.get(), ok, &gp);
            });
      }
    }
    for (std::size_t i = 0; i < kVms; ++i) co_await dep.vm(i).join_guests();
    std::printf("[t=%8.3fs] recovery segment completed\n",
                sim::to_seconds(cl->simulation().now()));
  }(&cloud, &recovered));

  std::printf("\nall ranks restored with matching digests and resumed: %s\n",
              recovered ? "YES" : "NO");
  return recovered ? 0 : 1;
}
