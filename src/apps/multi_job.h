// Multi-job scenario driver: K concurrent jobs (distinct tenants, distinct
// cr::Sessions, disjoint compute nodes) checkpointing into ONE shared
// repository. This is the multi-tenant operating mode the checkpointing-as-
// a-service literature targets: cross-job content overlap (a shared input
// dataset every job loads) dedups through the repository-scoped digest
// index, per-tenant QoS keeps a bulk job from starving a small one at the
// shared service queues, and every job restarts bit-exactly from its own
// catalog lineage.
//
// Each job runs the synthetic workload shape of §4.3 (fill a buffer, dump
// it to the virtual disk, request a snapshot, commit the line to the job's
// catalog), staggered in time, with per-job knobs for size, cadence, QoS
// weight and retention. Every job commits through the cloud's pipeline
// (CloudConfig::flush).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cloud.h"
#include "cr/checkpoint.h"
#include "sim/sim.h"

namespace blobcr::apps {

/// One tenant's job in a multi-job run.
struct TenantJobSpec {
  /// Job id: names the tenant and namespaces the job's checkpoint catalog.
  std::string name;
  /// Relative share at the QoS-controlled shared queues.
  double weight = 1.0;
  std::size_t instances = 1;
  std::uint64_t buffer_bytes = 4 * common::kMB;
  /// Successive checkpoint rounds.
  int rounds = 2;
  /// Launch delay relative to the run start (staggered job arrivals).
  sim::Duration stagger = 0;
  /// Compute time between rounds (0 = back-to-back bulk checkpointing).
  sim::Duration think_time = 0;
  /// Per-job retention (keep-last-N through the job's own session; 0 off).
  std::size_t keep_last = 0;
  /// Tear down and restart from the job's own catalog at the end, verifying
  /// every instance's restored buffer bit for bit.
  bool do_restart = true;
  /// Mid-job rollback cadence: after every `restart_every`-th round the job
  /// tears down and cold-restarts from its latest checkpoint before
  /// continuing (0 = off). Several bulk jobs on the same cadence form the
  /// mass-rollback storm the restart-prefetch gate arbitrates.
  int restart_every = 0;
};

struct MultiJobRun {
  std::vector<TenantJobSpec> jobs;
  /// Fraction of every rank's buffer that is the cross-job shared dataset
  /// (identical content in every job, every rank, every round — the "same
  /// input data" overlap the shared digest index collapses to one stored
  /// copy repository-wide). The rest is job-, rank- and round-private.
  double shared_fraction = 0.0;
};

/// What one job observed, plus its slice of the repository's per-tenant
/// accounting.
struct JobResult {
  std::string name;
  net::TenantId tenant = net::kDefaultTenant;
  /// Per-round commit completion time and app-blocked time (max over the
  /// job's instances — the pause a guest actually saw).
  std::vector<sim::Duration> checkpoint_times;
  std::vector<sim::Duration> blocked_times;
  sim::Duration restart_time = 0;
  /// Every cold-restart makespan the job saw: the mid-job rollback cycles
  /// (TenantJobSpec::restart_every) plus the final do_restart one.
  std::vector<sim::Duration> restart_times;
  bool verified = true;
  /// The job's repository accounting summed over every zone
  /// (Cloud::tenant_usage; commit_wait is the full shared-queue wait: the
  /// commit gate plus the version- and provider-manager queues, in either
  /// QoS mode). A fresh per-job tenant has no pre-job usage, so this is the
  /// job's own.
  blob::BlobStore::TenantUsage usage;
  std::uint64_t gc_reclaimed_bytes = 0;
  /// The job's own catalog lineage as its session lists it.
  std::vector<cr::CheckpointRecord> records;
};

struct MultiJobResult {
  std::vector<JobResult> jobs;
  /// Payload + metadata resident in the shared repository after all jobs.
  std::uint64_t repository_bytes = 0;

  bool all_verified() const {
    for (const JobResult& j : jobs) {
      if (!j.verified) return false;
    }
    return true;
  }
};

/// Runs all jobs concurrently on an already-constructed (BlobCR) cloud.
/// Jobs get disjoint compute-node ranges, in job order from node 0; final
/// restarts land on the range shifted past every job, so the cloud needs
/// >= 2 * sum(instances) compute nodes (sum(instances) when no job sets
/// do_restart).
MultiJobResult run_multi_job(core::Cloud& cloud, const MultiJobRun& run);

}  // namespace blobcr::apps
