#include "apps/scenarios.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "common/strutil.h"
#include "cr/remap.h"
#include "cr/session.h"
#include "guestfs/simplefs.h"
#include "mpi/blcr.h"
#include "mpi/coordinated.h"
#include "sim/when_all.h"

namespace blobcr::apps {

using core::Backend;
using core::Cloud;
using core::Deployment;
using sim::Task;

const char* mode_name(CkptMode mode) {
  switch (mode) {
    case CkptMode::AppLevel:
      return "app";
    case CkptMode::ProcessBlcr:
      return "blcr";
    case CkptMode::FullVm:
      return "full";
  }
  return "?";
}

namespace {

/// Memory-fill rate for "fill the buffer with random data".
constexpr double kMemFillBps = 4e9;

struct SyntheticShared {
  std::vector<std::uint64_t> digests;
  std::vector<bool> restore_ok;
};

Task<> synthetic_worker(Deployment* dep, std::size_t index,
                        SyntheticRun run, CkptMode mode,
                        sim::Barrier* start_bar, sim::Barrier* end_bar,
                        std::shared_ptr<SyntheticShared> shared,
                        vm::GuestProcess* gp) {
  for (int round = 0; round < run.rounds; ++round) {
    // (Re)fill the buffer with fresh random data. The leading
    // shared_fraction of every rank's buffer is the same deployment-wide
    // content (a common input dataset), the tail is rank-private.
    const std::uint64_t seed =
        0xf111ULL * (index + 1) + static_cast<std::uint64_t>(round);
    if (run.real_data) {
      std::uint64_t shared = static_cast<std::uint64_t>(
          static_cast<double>(run.buffer_bytes) * run.shared_fraction);
      shared = std::min(shared, run.buffer_bytes);
      const std::uint64_t shared_seed =
          0x5a1dULL + static_cast<std::uint64_t>(round);
      common::Buffer buf = common::Buffer::pattern(shared, shared_seed);
      buf.append(common::Buffer::pattern(run.buffer_bytes - shared, seed));
      gp->set_region("buffer", std::move(buf));
    } else {
      gp->set_region("buffer", common::Buffer::phantom(run.buffer_bytes));
    }
    co_await gp->compute(sim::transfer_time(run.buffer_bytes, kMemFillBps));
    shared->digests[index] = gp->region("buffer").digest();

    co_await start_bar->arrive_and_wait();
    if (mode == CkptMode::AppLevel) {
      guestfs::SimpleFs* fs = gp->vm().fs();
      co_await gp->vm().gate();
      co_await fs->write_file("/data/buffer.bin", gp->region("buffer"));
      co_await fs->sync();
      (void)co_await dep->snapshot_instance(index);
    } else if (mode == CkptMode::ProcessBlcr) {
      co_await mpi::Blcr::dump(*gp, "/data/proc.blcr");
      co_await gp->vm().fs()->sync();
      (void)co_await dep->snapshot_instance(index);
    }
    // FullVm: the external driver snapshots whole VMs between the barriers.
    co_await end_bar->arrive_and_wait();
  }
}

Task<> synthetic_restore_worker(std::size_t index, SyntheticRun run,
                                CkptMode mode,
                                std::shared_ptr<SyntheticShared> shared,
                                vm::GuestProcess* gp) {
  if (mode == CkptMode::AppLevel) {
    guestfs::SimpleFs* fs = gp->vm().fs();
    co_await gp->vm().gate();
    common::Buffer data = co_await fs->read_file("/data/buffer.bin");
    const bool ok = data.size() == run.buffer_bytes &&
                    data.digest() == shared->digests[index];
    gp->set_region("buffer", std::move(data));
    shared->restore_ok[index] = ok;
  } else {
    const bool ok = co_await mpi::Blcr::restore(*gp, "/data/proc.blcr");
    shared->restore_ok[index] =
        ok && gp->region("buffer").digest() == shared->digests[index];
  }
}

Task<> synthetic_driver(Cloud* cloud, SyntheticRun run, CkptMode mode,
                        RunResult* result) {
  sim::Simulation& sim = cloud->simulation();
  co_await cloud->provision_base_image();
  Deployment dep(*cloud, run.instances);
  cr::Session session(dep);  // checkpoint identity lives in the catalog
  sim::Time t0 = sim.now();
  co_await dep.deploy_and_boot();
  result->deploy_time = sim.now() - t0;
  const std::uint64_t repo_baseline = cloud->repository_bytes();

  auto shared = std::make_shared<SyntheticShared>();
  shared->digests.resize(run.instances);
  shared->restore_ok.assign(run.instances, true);
  sim::Barrier start_bar(sim, run.instances + 1);
  sim::Barrier end_bar(sim, run.instances + 1);

  for (std::size_t i = 0; i < run.instances; ++i) {
    Deployment* dp = &dep;
    dep.vm(i).start_guest(
        "worker", [dp, i, run, mode, &start_bar, &end_bar,
                   shared](vm::GuestProcess& gp) -> Task<> {
          co_await synthetic_worker(dp, i, run, mode, &start_bar, &end_bar,
                                    shared, &gp);
        });
  }

  for (int round = 0; round < run.rounds; ++round) {
    co_await start_bar.arrive_and_wait();
    t0 = sim.now();
    if (mode == CkptMode::FullVm) {
      (void)co_await dep.checkpoint_all();
    }
    co_await end_bar.arrive_and_wait();
    // Commit the round's line to the catalog. commit_last waits out every
    // instance's drain first (async pipeline: the round completes when
    // every staged snapshot has *published*), so the round's record is a
    // complete global checkpoint.
    const cr::CheckpointRecord rec = co_await session.commit_last();
    result->checkpoint_times.push_back(sim.now() - t0);
    sim::Duration blocked = 0;
    for (const core::InstanceSnapshot& s : rec.snapshots) {
      blocked = std::max(blocked, s.vm_downtime);
    }
    result->checkpoint_blocked_times.push_back(blocked);
    result->snapshot_bytes_per_vm.push_back(rec.total_bytes() /
                                            run.instances);
    result->repo_growth.push_back(cloud->repository_bytes() - repo_baseline);
  }
  for (std::size_t i = 0; i < run.instances; ++i) {
    co_await dep.vm(i).join_guests();
  }

  if (run.do_restart) {
    dep.destroy_all();
    t0 = sim.now();
    // §4.3.1 restarts on different nodes with no local state left behind:
    // cold caches (every byte comes from the repository or from peers
    // restarting alongside), and the restart target is whatever the
    // catalog says was the last complete global checkpoint.
    (void)co_await session.restart(
        cr::Selector::latest(),
        {.node_offset = run.restart_shift, .cold_caches = true});
    if (mode != CkptMode::FullVm) {
      for (std::size_t i = 0; i < run.instances; ++i) {
        dep.vm(i).start_guest(
            "restore", [i, run, mode, shared](vm::GuestProcess& gp) -> Task<> {
              co_await synthetic_restore_worker(i, run, mode, shared, &gp);
            });
      }
      for (std::size_t i = 0; i < run.instances; ++i) {
        co_await dep.vm(i).join_guests();
      }
    }
    result->restart_time = sim.now() - t0;
    // The restarted mirrors are fresh objects, so their counters cover
    // exactly the restart's lazy-fetch traffic.
    result->restart = dep.source_bytes();
    if (run.real_data) {
      for (const bool ok : shared->restore_ok) {
        result->verified = result->verified && ok;
      }
    }
  }
}

}  // namespace

RunResult run_synthetic(Cloud& cloud, const SyntheticRun& run,
                        CkptMode mode) {
  assert((mode == CkptMode::FullVm) ==
             (cloud.config().backend == Backend::Qcow2Full) &&
         "FullVm mode pairs with the Qcow2Full backend");
  RunResult result;
  cloud.run(synthetic_driver(&cloud, run, mode, &result));
  return result;
}

// --- elastic restart ---------------------------------------------------------

namespace {

struct ElasticShared {
  std::vector<std::uint64_t> digests;
  std::vector<bool> restore_ok;
};

/// One pre-rescale instance's state: a distinct data buffer written to disk
/// and synced, its digest recorded for the union verification.
Task<> elastic_writer(std::size_t index, ElasticRun run,
                      std::shared_ptr<ElasticShared> shared,
                      vm::GuestProcess* gp) {
  const std::uint64_t seed = 0xe1a5ULL * (index + 1);
  gp->set_region("buffer",
                 run.real_data
                     ? common::Buffer::pattern(run.buffer_bytes, seed)
                     : common::Buffer::phantom(run.buffer_bytes));
  co_await gp->compute(sim::transfer_time(run.buffer_bytes, kMemFillBps));
  shared->digests[index] = gp->region("buffer").digest();
  guestfs::SimpleFs* fs = gp->vm().fs();
  co_await gp->vm().gate();
  co_await fs->write_file("/data/buffer.bin", gp->region("buffer"));
  co_await fs->sync();
}

/// New instance `index`'s boot device must hold source `source`'s state.
Task<> elastic_verify_boot(std::size_t index, std::size_t source,
                           ElasticRun run,
                           std::shared_ptr<ElasticShared> shared,
                           vm::GuestProcess* gp) {
  guestfs::SimpleFs* fs = gp->vm().fs();
  co_await gp->vm().gate();
  common::Buffer data = co_await fs->read_file("/data/buffer.bin");
  bool ok = data.size() == run.buffer_bytes;
  if (run.real_data) ok = ok && data.digest() == shared->digests[source];
  shared->restore_ok[index] = shared->restore_ok[index] && ok;
}

Task<> elastic_driver(Cloud* cloud, ElasticRun run, ElasticResult* result) {
  sim::Simulation& sim = cloud->simulation();
  co_await cloud->provision_base_image();
  Deployment dep(*cloud, run.instances);
  cr::Session session(dep);
  sim::Time t0 = sim.now();
  co_await dep.deploy_and_boot();
  result->deploy_time = sim.now() - t0;

  auto shared = std::make_shared<ElasticShared>();
  shared->digests.resize(run.instances);
  for (std::size_t i = 0; i < run.instances; ++i) {
    dep.vm(i).start_guest(
        "writer", [i, run, shared](vm::GuestProcess& gp) -> Task<> {
          co_await elastic_writer(i, run, shared, &gp);
        });
  }
  for (std::size_t i = 0; i < run.instances; ++i) {
    co_await dep.vm(i).join_guests();
  }

  t0 = sim.now();
  (void)co_await session.checkpoint("pre-rescale");
  result->checkpoint_time = sim.now() - t0;

  dep.destroy_all();
  t0 = sim.now();
  cr::Session::RestartOptions opts;
  opts.node_offset = run.restart_shift;
  opts.cold_caches = run.cold_caches;
  opts.instances = run.restart_instances;
  (void)co_await session.restart(cr::Selector::latest(), opts);

  // Union verification: every new boot device against its remap source,
  // every attached volume against the shard it adopted, and every one of
  // the N sources covered by some new shard.
  const std::size_t n = run.instances;
  const std::size_t m = dep.size();
  shared->restore_ok.assign(m, true);
  std::vector<bool> covered(n, false);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t source = cr::remap_source(i, n, m);
    covered[source] = true;
    dep.vm(i).start_guest(
        "verify", [i, source, run, shared](vm::GuestProcess& gp) -> Task<> {
          co_await elastic_verify_boot(i, source, run, shared, &gp);
        });
  }
  for (std::size_t i = 0; i < m; ++i) co_await dep.vm(i).join_guests();
  bool attached_ok = true;
  std::size_t attached_checked = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < dep.attached_count(i); ++k) {
      core::Deployment::AttachedVolume& vol = dep.attached_volume(i, k);
      const std::size_t source = vol.source.instance;
      if (source < n) covered[source] = true;
      const auto fs = co_await guestfs::SimpleFs::mount(vol.device());
      common::Buffer data = co_await fs->read_file("/data/buffer.bin");
      bool ok = data.size() == run.buffer_bytes;
      if (run.real_data) ok = ok && data.digest() == shared->digests[source];
      attached_ok = attached_ok && ok;
      ++attached_checked;
    }
  }
  result->restart_time = sim.now() - t0;
  result->restart = dep.source_bytes();
  for (const bool ok : shared->restore_ok) {
    result->verified = result->verified && ok;
  }
  result->verified = result->verified && attached_ok;
  for (const bool c : covered) result->verified = result->verified && c;
  result->shards_verified = m + attached_checked;

  if (run.recheckpoint) {
    // Catalog invariant: the next checkpoint from the M-instance deployment
    // records M tuples, with `parent` still the pre-rescale record.
    const cr::CheckpointRecord rec =
        co_await session.checkpoint("post-rescale");
    result->tuples_after = rec.snapshots.size();
  }
}

}  // namespace

ElasticResult run_elastic(Cloud& cloud, const ElasticRun& run) {
  assert(cloud.config().backend != Backend::Qcow2Full &&
         "qcow2-full resumes full VM state and cannot rescale");
  ElasticResult result;
  cloud.run(elastic_driver(&cloud, run, &result));
  return result;
}

// --- CM1 ----------------------------------------------------------------------

namespace {

struct Cm1Shared {
  std::vector<std::uint64_t> digests;
  std::vector<bool> restore_ok;
};

/// Picks px*py == n with px as close to sqrt(n) as possible.
std::pair<int, int> process_grid(int n) {
  int px = static_cast<int>(std::sqrt(static_cast<double>(n)));
  while (px > 1 && n % px != 0) --px;
  return {px, n / px};
}

Task<> cm1_rank_body(Deployment* dep, cr::Session* session, Cm1Run run,
                     Cm1Config cfg, CkptMode mode, std::size_t vm_index,
                     int rank, sim::Barrier* start_bar, sim::Barrier* end_bar,
                     std::shared_ptr<Cm1Shared> shared,
                     vm::GuestProcess* gp) {
  dep->mpi().register_rank(rank, gp);
  Cm1Rank cm1(*gp, dep->mpi().comm(rank), cfg, rank);
  co_await cm1.init();
  co_await cm1.run(run.iterations);

  co_await start_bar->arrive_and_wait();
  shared->digests[static_cast<std::size_t>(rank)] = cm1.state_digest();

  mpi::CoordinatedHooks hooks;
  hooks.vm_leader = (rank % run.ranks_per_vm == 0);
  hooks.fs = gp->vm().fs();
  hooks.epoch_leader = (rank == 0);
  Cm1Rank* cm1p = &cm1;
  if (mode == CkptMode::AppLevel) {
    hooks.dump = [cm1p]() -> Task<> { (void)co_await cm1p->write_checkpoint(); };
  } else {
    hooks.dump = [gp, rank]() -> Task<> {
      co_await mpi::Blcr::dump(
          *gp, common::strf("/data/rank%03d.blcr", rank));
    };
  }
  hooks.request_disk_snapshot = [dep, vm_index]() -> Task<> {
    (void)co_await dep->snapshot_instance(vm_index);
  };
  if (dep->flush_enabled()) {
    hooks.wait_drained = [dep, vm_index]() -> Task<> {
      co_await dep->wait_drained(vm_index);
    };
  }
  // The protocol itself publishes the checkpoint to the catalog (stage
  // after the snapshot barrier, Complete after the drains).
  hooks.stage_record = [session]() -> Task<> {
    co_await session->stage_last();
  };
  hooks.publish_record = [session]() -> Task<> {
    (void)co_await session->publish_staged();
  };
  co_await mpi::coordinated_checkpoint(dep->mpi().comm(rank), hooks);
  co_await end_bar->arrive_and_wait();
}

Task<> cm1_restore_body(Deployment* dep, Cm1Config cfg, CkptMode mode,
                        int rank, std::shared_ptr<Cm1Shared> shared,
                        vm::GuestProcess* gp) {
  dep->mpi().rebind_rank(rank, gp);
  if (mode == CkptMode::AppLevel) {
    Cm1Rank cm1(*gp, dep->mpi().comm(rank), cfg, rank);
    const bool ok = co_await cm1.restore_checkpoint();
    shared->restore_ok[static_cast<std::size_t>(rank)] =
        ok && cm1.state_digest() ==
                  shared->digests[static_cast<std::size_t>(rank)];
  } else {
    const bool ok = co_await mpi::Blcr::restore(
        *gp, common::strf("/data/rank%03d.blcr", rank));
    shared->restore_ok[static_cast<std::size_t>(rank)] =
        ok && gp->region("fields").digest() ==
                  shared->digests[static_cast<std::size_t>(rank)];
  }
}

Task<> cm1_driver(Cloud* cloud, Cm1Run run, CkptMode mode,
                  RunResult* result) {
  sim::Simulation& sim = cloud->simulation();
  co_await cloud->provision_base_image();
  Deployment dep(*cloud, run.vms);
  cr::Session session(dep);
  sim::Time t0 = sim.now();
  co_await dep.deploy_and_boot();
  result->deploy_time = sim.now() - t0;
  const std::uint64_t repo_baseline = cloud->repository_bytes();

  const int nranks = static_cast<int>(run.vms) * run.ranks_per_vm;
  dep.mpi().set_size(nranks);
  Cm1Config cfg = run.app;
  const auto [px, py] = process_grid(nranks);
  cfg.px = px;
  cfg.py = py;

  auto shared = std::make_shared<Cm1Shared>();
  shared->digests.resize(static_cast<std::size_t>(nranks));
  shared->restore_ok.assign(static_cast<std::size_t>(nranks), true);
  sim::Barrier start_bar(sim, static_cast<std::size_t>(nranks) + 1);
  sim::Barrier end_bar(sim, static_cast<std::size_t>(nranks) + 1);

  for (std::size_t i = 0; i < run.vms; ++i) {
    for (int k = 0; k < run.ranks_per_vm; ++k) {
      const int rank = static_cast<int>(i) * run.ranks_per_vm + k;
      Deployment* dp = &dep;
      cr::Session* sp = &session;
      dep.vm(i).start_guest(
          common::strf("rank%d", rank),
          [dp, sp, run, cfg, mode, i, rank, &start_bar, &end_bar,
           shared](vm::GuestProcess& gp) -> Task<> {
            co_await cm1_rank_body(dp, sp, run, cfg, mode, i, rank,
                                   &start_bar, &end_bar, shared, &gp);
          });
    }
  }

  co_await start_bar.arrive_and_wait();
  t0 = sim.now();
  co_await end_bar.arrive_and_wait();
  result->checkpoint_times.push_back(sim.now() - t0);
  // The coordinated protocol's epoch leader committed the round's catalog
  // record before any rank passed the final barrier.
  const cr::CheckpointRecord rec = session.last_committed().value();
  sim::Duration blocked = 0;
  for (const core::InstanceSnapshot& s : rec.snapshots) {
    blocked = std::max(blocked, s.vm_downtime);
  }
  result->checkpoint_blocked_times.push_back(blocked);
  result->snapshot_bytes_per_vm.push_back(rec.total_bytes() / run.vms);
  result->repo_growth.push_back(cloud->repository_bytes() - repo_baseline);
  for (std::size_t i = 0; i < run.vms; ++i) co_await dep.vm(i).join_guests();

  if (run.do_restart) {
    dep.destroy_all();
    t0 = sim.now();
    // Cold restart on different nodes (§4.4), selected from the catalog.
    (void)co_await session.restart(
        cr::Selector::latest(),
        {.node_offset = run.restart_shift, .cold_caches = true});
    for (std::size_t i = 0; i < run.vms; ++i) {
      for (int k = 0; k < run.ranks_per_vm; ++k) {
        const int rank = static_cast<int>(i) * run.ranks_per_vm + k;
        Deployment* dp = &dep;
        dep.vm(i).start_guest(
            common::strf("restore%d", rank),
            [dp, cfg, mode, rank, shared](vm::GuestProcess& gp) -> Task<> {
              co_await cm1_restore_body(dp, cfg, mode, rank, shared, &gp);
            });
      }
    }
    for (std::size_t i = 0; i < run.vms; ++i) {
      co_await dep.vm(i).join_guests();
    }
    result->restart_time = sim.now() - t0;
    result->restart = dep.source_bytes();
    if (run.app.real_data) {
      for (const bool ok : shared->restore_ok) {
        result->verified = result->verified && ok;
      }
    }
  }
}

}  // namespace

RunResult run_cm1(Cloud& cloud, const Cm1Run& run, CkptMode mode) {
  assert(mode != CkptMode::FullVm && "the paper omits qcow2-full for CM1");
  RunResult result;
  cloud.run(cm1_driver(&cloud, run, mode, &result));
  return result;
}

}  // namespace blobcr::apps
