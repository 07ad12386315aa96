// HEP event loop: exactly-once output through disk-snapshot I/O rollback.
//
// Two VM instances each process a stream of collision events, appending a
// record to an append-only result log for every "hit". Midway, the ranks
// checkpoint (state dump + disk snapshot). The run then continues — and the
// cloud fail-stops, losing everything since the checkpoint, *including log
// records that were already synced to the virtual disks*. After the restart,
// the restored disks hold the logs exactly as of the checkpoint, so replaying
// the lost events appends each hit exactly once: no duplicates, no holes.
// With checkpoints on a shared parallel file system, the post-checkpoint
// records would have survived the rollback and appeared twice (§2.2).
//
// Build & run:  ./build/examples/hep_eventloop
#include <cstdio>

#include "apps/hep.h"
#include "core/blobcr.h"
#include "sim/sim.h"

using namespace blobcr;
using sim::Task;

namespace {

void banner(core::Cloud& cloud, const char* msg) {
  std::printf("[t=%8.3fs] %s\n", sim::to_seconds(cloud.simulation().now()),
              msg);
}

constexpr std::size_t kVms = 2;
constexpr std::uint64_t kCkptAt = 800;

apps::HepConfig hep_config() {
  apps::HepConfig cfg;
  cfg.total_events = 1'600;
  cfg.per_event_compute = 200 * sim::kMicrosecond;
  cfg.hit_probability = 0.2;
  cfg.histogram_bytes = 512 * 1024;
  cfg.real_data = true;
  return cfg;
}

}  // namespace

int main() {
  core::CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 32 * common::kMB;
  core::Cloud cloud(cfg);

  struct PerVm {
    std::uint64_t expect_ckpt = 0, expect_final = 0;
    std::uint64_t at_ckpt = 0, before_crash = 0, after_restore = 0, final = 0;
    bool restore_ok = false;
  };
  std::vector<PerVm> out(kVms);

  cloud.run([](core::Cloud* cl, std::vector<PerVm>* out) -> Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, kVms);
    cr::Session session(dep);
    banner(*cl, "deploying 2 VMs, one event-processing rank each");
    co_await dep.deploy_and_boot();

    sim::Barrier phase(cl->simulation(), kVms + 1);
    for (std::size_t i = 0; i < kVms; ++i) {
      dep.vm(i).start_guest("hep", [&dep, i, out,
                                    &phase](vm::GuestProcess& gp) -> Task<> {
        apps::HepRank hep(gp, hep_config(), static_cast<int>(i));
        PerVm& my = (*out)[i];
        co_await hep.init();
        co_await hep.process_until(kCkptAt);
        (void)co_await hep.write_checkpoint();
        co_await gp.vm().fs()->sync();
        (void)co_await dep.snapshot_instance(i);
        my.expect_ckpt = hep.expected_hits(kCkptAt);
        my.at_ckpt = co_await hep.count_log_records();
        // Keep processing past the checkpoint; sync so the records really
        // reach the virtual disk before the crash.
        co_await hep.process_until(hep_config().total_events);
        co_await gp.vm().fs()->sync();
        my.before_crash = co_await hep.count_log_records();
        my.expect_final = hep.expected_hits(hep_config().total_events);
        co_await phase.arrive_and_wait();
      });
    }
    co_await phase.arrive_and_wait();
    for (std::size_t i = 0; i < kVms; ++i) co_await dep.vm(i).join_guests();
    banner(*cl, "checkpoint taken at event 800; run continued to 1600");

    (void)co_await session.commit_last("event-800");
    dep.destroy_all();
    banner(*cl, "fail-stop: all instances and their disks are gone");

    (void)co_await session.restart(cr::Selector::latest(),
                                   {.node_offset = kVms});
    banner(*cl, "restarted from disk snapshots on fresh nodes");

    sim::Barrier phase2(cl->simulation(), kVms + 1);
    for (std::size_t i = 0; i < kVms; ++i) {
      dep.vm(i).start_guest("hep-replay",
                            [i, out, &phase2](vm::GuestProcess& gp) -> Task<> {
        apps::HepRank hep(gp, hep_config(), static_cast<int>(i));
        PerVm& my = (*out)[i];
        my.restore_ok = co_await hep.restore_checkpoint();
        my.after_restore = co_await hep.count_log_records();
        co_await hep.process_until(hep_config().total_events);
        co_await gp.vm().fs()->sync();
        my.final = co_await hep.count_log_records();
        co_await phase2.arrive_and_wait();
      });
    }
    co_await phase2.arrive_and_wait();
    for (std::size_t i = 0; i < kVms; ++i) co_await dep.vm(i).join_guests();
    banner(*cl, "lost events replayed");
  }(&cloud, &out));

  std::printf("\n%-4s %12s %14s %14s %12s %10s\n", "vm", "log@ckpt",
              "log@crash", "log@restore", "log final", "expected");
  bool ok = true;
  for (std::size_t i = 0; i < kVms; ++i) {
    const PerVm& my = out[i];
    std::printf("%-4zu %12llu %14llu %14llu %12llu %10llu\n", i,
                static_cast<unsigned long long>(my.at_ckpt),
                static_cast<unsigned long long>(my.before_crash),
                static_cast<unsigned long long>(my.after_restore),
                static_cast<unsigned long long>(my.final),
                static_cast<unsigned long long>(my.expect_final));
    ok = ok && my.restore_ok && my.at_ckpt == my.expect_ckpt &&
         my.after_restore == my.expect_ckpt && my.final == my.expect_final;
  }
  std::printf("\nexactly-once output after rollback + replay: %s\n",
              ok ? "YES" : "NO");
  return ok ? 0 : 1;
}
