// FtRunner: closes the checkpoint-restart loop the paper motivates but only
// exercises piecewise. It runs a tightly-coupled job on a Cloud deployment
// under injected fail-stop node failures (§2.1's infrastructure model),
// taking a coordinated disk-snapshot checkpoint every `checkpoint_interval`
// of useful work, and on every failure rolls the whole application back to
// the last *complete* global checkpoint on fresh nodes (§3.2's middleware
// mapping), until the job's total work is done.
//
// The report separates useful work, wasted compute, checkpoint overhead and
// restart overhead, so benchmarks can compare the measured makespan against
// the analytic renewal model in ft/interval.h and show how BlobCR's cheaper
// snapshots shift the optimum interval (Young/Daly) and raise efficiency.
//
// Modeling notes:
//  * The job is `instances` ranks, one per VM, synchronized by a barrier
//    every `step` of compute (tightly coupled: one lost rank stalls all).
//  * A failure event fail-stops the victim's node: the VM dies and so does
//    the co-located data provider (use replication >= 2 to keep the
//    repository readable — exactly the paper's design point).
//  * Failure events that fire while a restart is in progress are deferred
//    to the next epoch start (cost-wise equivalent to a failure during
//    restart: another restart is paid almost immediately).
//  * An initial checkpoint is taken right after deployment so a failure in
//    the first epoch has a rollback target.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cloud.h"
#include "cr/checkpoint.h"
#include "ft/failure.h"
#include "sim/sim.h"

namespace blobcr::ft {

/// Heartbeat timeout: delay between a failure and the middleware reacting.
constexpr sim::Duration kDetectLatency = 2 * sim::kSecond;

struct FtJobConfig {
  std::size_t instances = 4;
  /// Useful compute per rank for the whole job.
  sim::Duration total_work = 600 * sim::kSecond;
  /// Useful compute between coordinated checkpoints (tau).
  sim::Duration checkpoint_interval = 120 * sim::kSecond;
  /// Compute granularity; ranks barrier after every step.
  sim::Duration step = 5 * sim::kSecond;
  /// Per-rank process state dumped at each checkpoint.
  std::uint64_t state_bytes = 50 * common::kMB;
  /// Real buffers with digest verification (tests) vs phantom (benchmarks).
  bool real_data = false;
  /// Injected fail-stop events (empty = failure-free run).
  FailureSchedule failures;
  /// Give up after this many rollbacks (guards pathological configs).
  std::size_t max_restarts = 64;
  /// After every rollback, run a repository repair pass that re-replicates
  /// chunks whose provider died with the node (BlobCR backend only). Keeps
  /// the *next* failure survivable instead of just the first.
  bool repair_after_restart = false;
  /// Catalog retention (the paper's §6 future work): after every committed
  /// checkpoint the runner's cr::Session retires records beyond
  /// keep-last-N and reclaims their snapshot versions through the garbage
  /// collector. keep_last == 0 disables. The runner only ever rolls back
  /// to the latest complete checkpoint, so keeping 1 is always safe.
  cr::RetentionPolicy retention;
};

/// One epoch (work span between checkpoints) as the driver observed it.
struct EpochRecord {
  sim::Time start = 0;
  sim::Time end = 0;
  bool success = false;          // checkpoint committed for all ranks
  std::size_t failures = 0;      // injected failures during the epoch
};

struct FtReport {
  bool completed = false;        // all work done within max_restarts
  bool verified = true;          // every restored state digest matched
  sim::Duration makespan = 0;
  sim::Duration useful_work = 0;         // checkpoint-committed compute
  sim::Duration wasted_compute = 0;      // epoch time lost to rollbacks
  sim::Duration checkpoint_overhead = 0; // dump + snapshot (+ drain) phases
  /// VM pause time summed over all snapshot requests: the app-blocked share
  /// of checkpoint_overhead. With the async commit pipeline this collapses
  /// to the local staging cost while the drain overlaps other ranks.
  sim::Duration ckpt_blocked = 0;
  sim::Duration restart_overhead = 0;    // detection + redeploy + restore
  /// Restart lazy-fetch bytes by ladder level, summed over all rollbacks
  /// (BlobCR).
  core::SourceBytes restart;
  std::size_t checkpoints = 0;   // committed global checkpoints
  std::size_t failures = 0;      // injected failures that hit the job
  std::size_t restarts = 0;      // rollbacks performed
  std::size_t repair_copies = 0; // replica copies re-created by repair
  std::uint64_t repair_bytes = 0;
  std::uint64_t gc_reclaimed_bytes = 0;
  std::vector<EpochRecord> epochs;

  /// Useful-work fraction of the makespan, in (0, 1].
  double efficiency() const {
    return makespan > 0 ? sim::to_seconds(useful_work) /
                              sim::to_seconds(makespan)
                        : 1.0;
  }
};

/// Runs the job to completion (or max_restarts) on the given cloud.
/// The cloud's backend decides BlobCR vs the qcow2-disk baseline.
FtReport run_ft_job(core::Cloud& cloud, const FtJobConfig& cfg);

}  // namespace blobcr::ft
