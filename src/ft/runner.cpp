#include "ft/runner.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "blob/repair.h"
#include "common/strutil.h"
#include "cr/session.h"
#include "mpi/coordinated.h"

namespace blobcr::ft {

using core::Cloud;
using core::Deployment;
using sim::Task;

namespace {

/// Memory-fill rate for refreshing rank state between checkpoints.
constexpr double kMemFillBps = 4e9;

constexpr const char* kStatePath = "/data/state.bin";

/// Stable indirection to the current Deployment: a failure before the first
/// checkpoint forces a from-scratch redeployment (a new Deployment object),
/// and the injector must follow the driver to the live one.
struct DepHolder {
  std::unique_ptr<Deployment> dep;
};

/// Driver/worker/injector rendezvous state for one whole job.
struct JobShared {
  JobShared(sim::Simulation& sim, std::size_t n)
      : n(n), wq(sim), active_wq(sim) {
    pending_digests.assign(n, 0);
    committed_digests.assign(n, 0);
    restore_ok.assign(n, true);
  }

  const std::size_t n;

  // --- per-epoch fields, reset by begin_epoch() ---
  std::size_t finished = 0;
  bool failed = false;
  std::size_t epoch_failures = 0;
  sim::Time ckpt_phase_start = 0;  // first rank entering the ckpt phase
  std::exception_ptr worker_error;

  // --- whole-job fields ---
  bool epoch_active = false;
  int epoch = 0;
  sim::Duration ckpt_blocked = 0;  // VM pause time across snapshot requests
  /// Digests of the state each rank produced in the current epoch...
  std::vector<std::uint64_t> pending_digests;
  /// ...promoted here only when the epoch's global checkpoint commits, so a
  /// rollback verifies against what the repository actually holds.
  std::vector<std::uint64_t> committed_digests;
  std::vector<bool> restore_ok;

  sim::WaitQueue wq;         // worker completion / failure -> driver
  sim::WaitQueue active_wq;  // epoch start -> deferred injector events

  void begin_epoch() {
    finished = 0;
    failed = false;
    epoch_failures = 0;
    ckpt_phase_start = 0;
    worker_error = nullptr;
  }
};

/// Scalar parameters an epoch worker needs (copied into its frame so the
/// lambda has no dangling references).
struct EpochParams {
  std::size_t rank = 0;
  int epoch = 0;
  sim::Duration work = 0;
  sim::Duration step = 0;
  std::uint64_t state_bytes = 0;
  bool real_data = false;
};

/// One rank's epoch: refresh state, compute `work` in barrier-synchronized
/// steps, then run the coordinated checkpoint protocol. Errors are reported
/// as a job failure (the checkpoint could not complete), not propagated —
/// the driver rolls back, which is exactly what the middleware would do.
Task<> epoch_worker(Deployment* dep, cr::Session* session, EpochParams p,
                    std::shared_ptr<JobShared> st, vm::GuestProcess* gp) {
  try {
    dep->mpi().register_rank(static_cast<int>(p.rank), gp);
    mpi::MpiWorld::Comm comm = dep->mpi().comm(static_cast<int>(p.rank));

    // The rank's state evolves every epoch: fresh content, fresh digest.
    const std::uint64_t seed = common::mix64(
        0xf7a11ULL * (p.rank + 1) + static_cast<std::uint64_t>(p.epoch));
    gp->set_region("state",
                   p.real_data
                       ? common::Buffer::pattern(p.state_bytes, seed)
                       : common::Buffer::phantom(p.state_bytes));
    co_await gp->compute(sim::transfer_time(p.state_bytes, kMemFillBps));
    st->pending_digests[p.rank] = gp->region("state").digest();

    for (sim::Duration done = 0; done < p.work;) {
      const sim::Duration chunk = std::min(p.step, p.work - done);
      co_await gp->compute(chunk);
      done += chunk;
      co_await comm.barrier();  // tightly coupled: lock-step ranks
    }

    if (st->ckpt_phase_start == 0)
      st->ckpt_phase_start = gp->vm().simulation().now();
    mpi::CoordinatedHooks hooks;
    hooks.vm_leader = true;  // one rank per VM
    hooks.fs = gp->vm().fs();
    hooks.epoch_leader = (p.rank == 0);
    hooks.dump = [gp]() -> Task<> {
      co_await gp->vm().gate();
      co_await gp->vm().fs()->write_file(kStatePath, gp->region("state"));
    };
    hooks.request_disk_snapshot = [dep, st, i = p.rank]() -> Task<> {
      const core::InstanceSnapshot snap = co_await dep->snapshot_instance(i);
      st->ckpt_blocked += snap.vm_downtime;
    };
    if (dep->flush_enabled()) {
      // Async pipeline: a "complete global checkpoint" means globally
      // published — every VM leader waits out its node's drain before the
      // protocol's final barrier.
      hooks.wait_drained = [dep, i = p.rank]() -> Task<> {
        co_await dep->wait_drained(i);
      };
    }
    // Catalog control plane: the epoch leader stages the checkpoint record
    // once every snapshot is captured and publishes it Complete after the
    // drains — the record, not any driver memory, is what a rollback (or a
    // whole fresh driver) selects.
    hooks.stage_record = [session]() -> Task<> {
      co_await session->stage_last();
    };
    hooks.publish_record = [session]() -> Task<> {
      (void)co_await session->publish_staged();
    };
    co_await mpi::coordinated_checkpoint(comm, hooks);

    ++st->finished;
    st->wq.notify_all();
  } catch (...) {
    // A checkpoint that cannot complete (e.g. repository write failure after
    // a provider died) is a job failure: request a rollback.
    st->worker_error = std::current_exception();
    st->failed = true;
    st->wq.notify_all();
  }
}

/// One rank's restore after a rollback: read the state back, verify it,
/// rebind the rank. Throws on unreadable state (surfaces data loss).
Task<> restore_worker(Deployment* dep, EpochParams p,
                      std::shared_ptr<JobShared> st, vm::GuestProcess* gp) {
  dep->mpi().register_rank(static_cast<int>(p.rank), gp);
  guestfs::SimpleFs* fs = gp->vm().fs();
  co_await gp->vm().gate();
  common::Buffer data = co_await fs->read_file(kStatePath);
  const bool ok = data.size() == p.state_bytes &&
                  data.digest() == st->committed_digests[p.rank];
  gp->set_region("state", std::move(data));
  if (p.real_data) st->restore_ok[p.rank] = ok;
}

/// One restart wave: restarts the job from the latest complete record onto
/// nodes shifted by `shift`, restores every rank and joins them.
Task<> restart_and_restore(cr::Session* session, const FtJobConfig* cfg,
                           std::shared_ptr<JobShared> st, std::size_t shift,
                           FtReport* report) {
  cr::Session::RestartOptions ropts;
  ropts.node_offset = shift;
  (void)co_await session->restart(cr::Selector::latest(), ropts);
  Deployment& dep = session->deployment();
  dep.mpi().reset_for_restart();
  const std::size_t n = st->n;
  for (std::size_t i = 0; i < n; ++i) {
    EpochParams p;
    p.rank = i;
    p.epoch = st->epoch;
    p.state_bytes = cfg->state_bytes;
    p.real_data = cfg->real_data;
    Deployment* dp = &dep;
    dep.vm(i).start_guest(common::strf("ft-restore-r%zu", i),
                          [dp, p, st](vm::GuestProcess& gp) -> Task<> {
                            co_await restore_worker(dp, p, st, &gp);
                          });
  }
  for (std::size_t i = 0; i < n; ++i) co_await dep.vm(i).join_guests();
  // Fresh mirrors per restart: the counters cover this restart's lazy-fetch
  // traffic (sampled before the next epoch adds copy-ups).
  report->restart += dep.source_bytes();
}

/// Replays the failure schedule against the live deployment. Events landing
/// outside an active epoch (during detection/rollback) are deferred to the
/// next epoch start.
Task<> injector_body(sim::Simulation* sim, std::shared_ptr<DepHolder> holder,
                     std::shared_ptr<JobShared> st, FailureSchedule sched) {
  for (const FailureEvent& ev : sched.events()) {
    if (ev.at > sim->now()) co_await sim->delay(ev.at - sim->now());
    while (!st->epoch_active) co_await st->active_wq.wait();
    Deployment& dep = *holder->dep;
    const std::size_t victim = ev.victim % st->n;
    if (dep.instance(victim).failed) continue;  // node already down
    dep.fail_instance(victim);
    ++st->epoch_failures;
    st->failed = true;
    st->wq.notify_all();
  }
}

Task<> ft_driver(Cloud* cloud, const FtJobConfig* cfg, FtReport* report) {
  sim::Simulation& sim = cloud->simulation();
  const std::size_t n = cfg->instances;
  co_await cloud->provision_base_image();

  auto holder = std::make_shared<DepHolder>();
  std::size_t shift = 0;
  holder->dep = std::make_unique<Deployment>(*cloud, n, shift);
  co_await holder->dep->deploy_and_boot();
  holder->dep->mpi().set_size(static_cast<int>(n));

  // The middleware's control plane: checkpoint identity lives in the
  // repository-resident catalog, not in this driver's memory.
  cr::Session::Config scfg;
  scfg.retention = cfg->retention;
  auto session = std::make_unique<cr::Session>(*holder->dep, scfg);

  auto st = std::make_shared<JobShared>(sim, n);
  sim::ProcessPtr injector =
      sim.spawn("ft-injector", injector_body(&sim, holder, st, cfg->failures));

  const sim::Time job_start = sim.now();
  sim::Duration completed = 0;
  bool gave_up = false;

  // Epoch 0 takes the initial checkpoint (work = 0) so the very first
  // failure has a rollback target; later epochs advance the job.
  while (true) {
    Deployment& dep = *holder->dep;
    const sim::Duration epoch_work =
        st->epoch == 0
            ? 0
            : std::min(cfg->checkpoint_interval, cfg->total_work - completed);
    st->begin_epoch();
    // Catalog head before the epoch: if it advances, the epoch leader
    // durably published this epoch's record — the checkpoint is complete
    // even if a failure then kills a rank before every worker returns.
    const cr::CheckpointId epoch_head = session->lineage_head();
    EpochRecord rec;
    rec.start = sim.now();
    st->epoch_active = true;
    st->active_wq.notify_all();

    for (std::size_t i = 0; i < n; ++i) {
      EpochParams p;
      p.rank = i;
      p.epoch = st->epoch;
      p.work = epoch_work;
      p.step = cfg->step;
      p.state_bytes = cfg->state_bytes;
      p.real_data = cfg->real_data;
      Deployment* dp = &dep;
      cr::Session* sp = session.get();
      dep.vm(i).start_guest(
          common::strf("ft-e%d-r%zu", st->epoch, i),
          [dp, sp, p, st](vm::GuestProcess& gp) -> Task<> {
            co_await epoch_worker(dp, sp, p, st, &gp);
          });
    }

    while (st->finished < n && !st->failed) co_await st->wq.wait();
    st->epoch_active = false;
    rec.end = sim.now();
    // "Success" means the global checkpoint committed: either every worker
    // returned, or the catalog record published before the failure hit
    // (the published line is durable and IS the next rollback target, so
    // the driver must promote its digests and work accounting in step —
    // otherwise the restore would verify epoch-N state against epoch-N-1
    // digests and falsely report corruption).
    rec.success = st->finished == n || session->lineage_head() != epoch_head;
    rec.failures = st->epoch_failures;
    report->epochs.push_back(rec);
    report->failures += st->epoch_failures;

    if (rec.success) {
      // The epoch leader already published the catalog record inside the
      // coordinated protocol (and the session's retention pass ran); the
      // driver only keeps its verification digests in step.
      completed += epoch_work;
      ++report->checkpoints;
      st->committed_digests = st->pending_digests;
      if (st->ckpt_phase_start != 0)
        report->checkpoint_overhead += rec.end - st->ckpt_phase_start;
    } else {
      report->wasted_compute += rec.end - rec.start;
    }

    // Job done: even if a failure landed after the final commit, there is
    // nothing left to roll back for.
    if (st->epoch > 0 && completed >= cfg->total_work) break;

    if (st->failed) {
      // Failure detection (heartbeat timeout), then global rollback.
      co_await sim.delay(kDetectLatency);
      dep.destroy_all();
      ++report->restarts;
      if (report->restarts > cfg->max_restarts) {
        gave_up = true;
        break;
      }
      const sim::Time t0 = sim.now();
      shift += n;  // place every instance on fresh nodes
      const std::optional<cr::CheckpointRecord> target =
          co_await session->catalog().find(cr::Selector::latest());
      if (target.has_value()) {
        // §3.2: roll back to the last *complete* global checkpoint — the
        // catalog's selection, not a driver-held snapshot vector.
        co_await restart_and_restore(session.get(), cfg, st, shift, report);
      } else {
        // Failure during the initial checkpoint: no rollback target exists,
        // so resubmit from scratch — a fresh deployment from the base image.
        co_await session->abandon_staged();
        holder->dep = std::make_unique<Deployment>(*cloud, n, shift);
        co_await holder->dep->deploy_and_boot();
        holder->dep->mpi().set_size(static_cast<int>(n));
        session->attach(*holder->dep);
      }
      // Heal the repository: re-replicate what the dead node's provider
      // held, in whichever zone it served, so the next failure is just as
      // survivable as this one was.
      if (cfg->repair_after_restart) {
        for (std::uint32_t z = 0; z < cloud->zones(); ++z) {
          blob::RepairService repair(*cloud->blob_store(z));
          const blob::RepairService::Report r =
              co_await repair.repair(cloud->config().replication);
          report->repair_copies += r.copies_made;
          report->repair_bytes += r.bytes_copied;
        }
      }
      report->restart_overhead += sim.now() - t0 + kDetectLatency;
      if (rec.success) ++st->epoch;  // the failure hit after the commit
      continue;  // retry the interrupted work chunk
    }

    ++st->epoch;
  }

  injector->kill();
  report->makespan = sim.now() - job_start;
  report->useful_work = completed;
  report->gc_reclaimed_bytes = session->gc_reclaimed_bytes();
  report->ckpt_blocked = st->ckpt_blocked;
  report->completed = !gave_up && completed >= cfg->total_work;
  if (cfg->real_data) {
    for (const bool ok : st->restore_ok)
      report->verified = report->verified && ok;
  }
}

}  // namespace

FtReport run_ft_job(Cloud& cloud, const FtJobConfig& cfg) {
  if (cfg.instances == 0)
    throw std::invalid_argument("run_ft_job: instances must be > 0");
  if (cfg.checkpoint_interval <= 0)
    throw std::invalid_argument("run_ft_job: checkpoint_interval must be > 0");
  if (cfg.step <= 0)
    throw std::invalid_argument("run_ft_job: step must be > 0");
  if (cfg.total_work <= 0)
    throw std::invalid_argument("run_ft_job: total_work must be > 0");
  FtReport report;
  cloud.run(ft_driver(&cloud, &cfg, &report));
  return report;
}

}  // namespace blobcr::ft
