#include "apps/multi_job.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "common/strutil.h"
#include "cr/session.h"
#include "guestfs/simplefs.h"
#include "sim/when_all.h"

namespace blobcr::apps {

using core::Cloud;
using core::Deployment;
using sim::Task;

namespace {

/// Seed of the cross-job shared dataset: identical in every job, rank and
/// round, so overlapping content dedups repository-wide.
constexpr std::uint64_t kSharedSeed = 0x7e4a57ULL;

std::uint64_t private_seed(std::size_t job, std::size_t instance, int round) {
  return common::mix64(0x9e3779b97f4a7c15ULL * (job + 1) +
                       0x100000001b3ULL * (instance + 1) +
                       static_cast<std::uint64_t>(round));
}

/// Fill + dump + snapshot of one instance for one round. Records the
/// buffer digest (restore verification) and the VM pause the guest saw.
Task<> instance_round(Deployment* dep, const MultiJobRun* run,
                      const TenantJobSpec* spec, std::size_t job_index,
                      std::size_t instance, int round,
                      std::uint64_t* digest_out, sim::Duration* downtime_out) {
  std::uint64_t shared = static_cast<std::uint64_t>(
      static_cast<double>(spec->buffer_bytes) * run->shared_fraction);
  shared = std::min(shared, spec->buffer_bytes);
  common::Buffer buf = common::Buffer::pattern(shared, kSharedSeed);
  buf.append(common::Buffer::pattern(
      spec->buffer_bytes - shared, private_seed(job_index, instance, round)));
  *digest_out = buf.digest();

  guestfs::SimpleFs* fs = dep->vm(instance).fs();
  co_await fs->write_file("/data/buffer.bin", std::move(buf));
  co_await fs->sync();
  const core::InstanceSnapshot snap =
      co_await dep->snapshot_instance(instance);
  *downtime_out = snap.vm_downtime;
}

/// Tears the job down and cold-restarts it from its latest record onto
/// nodes shifted by `node_offset`, then reads every instance's buffer back
/// against `digests` (clearing `out->verified` on a mismatch). Returns the
/// restart makespan: restart plus read-back.
Task<sim::Duration> restart_and_read_back(
    Deployment* dep, cr::Session* session, const TenantJobSpec* spec,
    std::size_t node_offset, const std::vector<std::uint64_t>* digests,
    JobResult* out) {
  dep->destroy_all();
  const sim::Time t0 = dep->cloud().now();
  (void)co_await session->restart(
      cr::Selector::latest(),
      {.node_offset = node_offset, .cold_caches = true});
  for (std::size_t i = 0; i < spec->instances; ++i) {
    const common::Buffer back =
        co_await dep->vm(i).fs()->read_file("/data/buffer.bin");
    out->verified = out->verified && back.size() == spec->buffer_bytes &&
                    back.digest() == (*digests)[i];
  }
  co_return dep->cloud().now() - t0;
}

Task<> job_body(Cloud* cloud, const MultiJobRun* run, std::size_t job_index,
                std::size_t node_offset, std::size_t restart_offset,
                JobResult* out) {
  const TenantJobSpec& spec = run->jobs[job_index];
  sim::Simulation& sim = cloud->simulation();
  co_await sim.delay(spec.stagger);

  Deployment dep(*cloud, spec.instances,
                 Deployment::Options{node_offset, out->tenant});

  cr::Session::Config scfg;
  scfg.job = spec.name;
  scfg.retention.keep_last = spec.keep_last;
  cr::Session session(dep, scfg);

  co_await dep.deploy_and_boot();

  std::vector<std::uint64_t> digests(spec.instances, 0);
  std::vector<sim::Duration> downtimes(spec.instances, 0);
  for (int round = 0; round < spec.rounds; ++round) {
    const sim::Time t0 = sim.now();
    std::vector<Task<>> work;
    work.reserve(spec.instances);
    for (std::size_t i = 0; i < spec.instances; ++i) {
      work.push_back(instance_round(&dep, run, &spec, job_index, i, round,
                                    &digests[i], &downtimes[i]));
    }
    co_await sim::when_all(sim, std::move(work));
    // Commit the round's line to this job's catalog; with the async
    // pipeline this also waits out the drains, so the record is Complete.
    (void)co_await session.commit_last();
    out->checkpoint_times.push_back(sim.now() - t0);
    out->blocked_times.push_back(
        *std::max_element(downtimes.begin(), downtimes.end()));

    // Mid-job rollback cycle: tear down and cold-restart from the round
    // just committed, back onto the job's own node range, then keep
    // computing. Bulk jobs on the same cadence form the mass-rollback
    // storm the restart-prefetch gate admits against live commits.
    if (spec.restart_every > 0 && (round + 1) % spec.restart_every == 0 &&
        round + 1 < spec.rounds) {
      const sim::Duration took = co_await restart_and_read_back(
          &dep, &session, &spec, node_offset, &digests, out);
      out->restart_times.push_back(took);
    }
    if (spec.think_time > 0) co_await sim.delay(spec.think_time);
  }

  if (spec.do_restart) {
    out->restart_time = co_await restart_and_read_back(
        &dep, &session, &spec, restart_offset, &digests, out);
    out->restart_times.push_back(out->restart_time);
  }

  out->records = co_await session.list();
  out->gc_reclaimed_bytes = session.gc_reclaimed_bytes();
  out->usage = cloud->tenant_usage(out->tenant);
}

Task<> multi_job_driver(Cloud* cloud, const MultiJobRun* run,
                        MultiJobResult* result) {
  std::size_t total = 0;
  bool restarts = false;
  for (const TenantJobSpec& spec : run->jobs) {
    total += spec.instances;
    restarts = restarts || spec.do_restart;
  }
  const std::size_t needed = (restarts ? 2 : 1) * total;
  if (cloud->config().compute_nodes < needed) {
    throw std::invalid_argument(common::strf(
        "multi-job run needs %zu compute nodes (every job%s), cloud has %zu",
        needed, restarts ? " plus its restart range" : "",
        cloud->config().compute_nodes));
  }
  co_await cloud->provision_base_image();

  std::vector<Task<>> jobs;
  jobs.reserve(run->jobs.size());
  std::size_t offset = 0;
  for (std::size_t k = 0; k < run->jobs.size(); ++k) {
    JobResult& out = result->jobs[k];
    out.name = run->jobs[k].name;
    out.tenant = cloud->register_tenant(run->jobs[k].name, run->jobs[k].weight);
    // Jobs live on disjoint node ranges; a job's restart lands past every
    // job's live range so restarted instances come up on fresh machines.
    jobs.push_back(job_body(cloud, run, k, offset, total + offset, &out));
    offset += run->jobs[k].instances;
  }
  co_await sim::when_all(cloud->simulation(), std::move(jobs));
  result->repository_bytes = cloud->repository_bytes();
}

}  // namespace

MultiJobResult run_multi_job(Cloud& cloud, const MultiJobRun& run) {
  assert(cloud.config().backend == core::Backend::BlobCR &&
         "the multi-tenant repository is the BlobCR backend");
  MultiJobResult result;
  result.jobs.resize(run.jobs.size());
  cloud.run(multi_job_driver(&cloud, &run, &result));
  return result;
}

}  // namespace blobcr::apps
