// Scenarios: reusable end-to-end experiment drivers matching the paper's
// methodology (§4.2/§4.3/§4.4). Benchmarks, examples and integration tests
// all run through these, so every figure regenerates from the same code
// paths a library user would call. Checkpoints commit to — and restarts
// select from — the cr::Session control plane (src/cr/), exactly like the
// FT runner.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/cm1.h"
#include "core/cloud.h"
#include "sim/sim.h"

namespace blobcr::apps {

/// How process state reaches the virtual disk (paper §4.2's three settings).
enum class CkptMode {
  AppLevel,     // the application dumps its own files
  ProcessBlcr,  // BLCR dump driven by the MPI library
  FullVm        // no dump; full VM snapshot (qcow2-full only)
};

const char* mode_name(CkptMode mode);

/// The synthetic benchmarking application (§4.3): one process per VM fills
/// a data buffer with random data, synchronizes, dumps it and requests a
/// disk snapshot.
struct SyntheticRun {
  std::size_t instances = 1;
  std::uint64_t buffer_bytes = 50 * common::kMB;
  bool real_data = false;
  /// Fraction of each rank's buffer filled with deployment-shared content
  /// (a common input dataset every rank loads); the rest is rank-private.
  /// With the reduction pipeline enabled the shared part collapses to one
  /// stored copy across ranks — the dedup-heavy restart workload where the
  /// content-addressed data plane pays off most. Shared content needs
  /// real_data (phantom payloads are honest about being un-dedupable).
  double shared_fraction = 0.0;
  int rounds = 1;          // successive checkpoints (§4.3.2)
  bool do_restart = false; // kill everything and restart (§4.3.1)
  std::size_t restart_shift = 7;  // re-deploy on different nodes
};

/// The CM1 case study (§4.4): 4 ranks per quad-core VM, weak scaling.
struct Cm1Run {
  std::size_t vms = 1;
  int ranks_per_vm = 4;
  Cm1Config app;
  int iterations = 20;  // pre-checkpoint execution
  bool do_restart = false;
  std::size_t restart_shift = 7;
};

struct RunResult {
  sim::Duration deploy_time = 0;
  /// Global checkpoint completion time per round (Fig 2 / Fig 5a / Fig 6).
  /// With the async commit pipeline this is end-to-end *publish* time.
  std::vector<sim::Duration> checkpoint_times;
  /// Longest VM pause per round: the app-blocked share of a checkpoint
  /// (synchronous commits block for the whole transfer; the async pipeline
  /// blocks only for the local staging capture).
  std::vector<sim::Duration> checkpoint_blocked_times;
  /// Average per-VM snapshot size per round (Fig 4 / Table 1).
  std::vector<std::uint64_t> snapshot_bytes_per_vm;
  /// Cumulative checkpoint bytes in the repository per round (Fig 5b).
  std::vector<std::uint64_t> repo_growth;
  /// Restart completion time: redeploy + reboot + state restore (Fig 3).
  sim::Duration restart_time = 0;
  /// Restart bytes by ladder level (BlobCR; Deployment::source_bytes()
  /// right after the restore).
  core::SourceBytes restart;
  /// Digest verification outcome (real-data runs; true in phantom mode).
  bool verified = true;
};

/// Elastic (N -> M) restart scenario: N workers each write a distinct data
/// buffer to disk, the line commits as one global checkpoint, and the job
/// restarts as M instances through cr::Session's elastic path (shrink on a
/// spot reclaim, grow on a queue drain). Verification covers the *union* of
/// device images across the remap: every new boot device and every attached
/// volume digest-checks against its source instance's pre-checkpoint state,
/// and all N sources must be covered by the M shards.
struct ElasticRun {
  std::size_t instances = 4;          // N, before the rescale
  std::size_t restart_instances = 2;  // M, after
  std::uint64_t buffer_bytes = 50 * common::kMB;
  bool real_data = true;
  /// Cold restart semantics (machines reclaimed, caches gone) vs warm
  /// (surviving caches keep serving peer copies across the rescale).
  bool cold_caches = true;
  std::size_t restart_shift = 7;
  /// Commit a post-rescale checkpoint and report its tuple count
  /// (ElasticResult::tuples_after) — the catalog's M-tuple invariant.
  bool recheckpoint = false;
};

struct ElasticResult {
  sim::Duration deploy_time = 0;
  /// Pre-rescale global checkpoint completion time.
  sim::Duration checkpoint_time = 0;
  /// Rescaled restart makespan: teardown + remap + boot + state restore
  /// and union verification reads.
  sim::Duration restart_time = 0;
  /// Restart bytes by ladder level across the rescale (boot devices +
  /// attached volumes; BlobCR backend).
  core::SourceBytes restart;
  /// Every shard digest-verified AND every source covered (real-data runs;
  /// size checks only in phantom mode).
  bool verified = true;
  /// Boot devices + attached volumes checked (== N when coverage is full).
  std::size_t shards_verified = 0;
  /// Tuple count of the post-rescale checkpoint (0 when recheckpoint off).
  std::size_t tuples_after = 0;
};

/// Runs the synthetic workload on an already-constructed cloud. The cloud's
/// backend decides BlobCR vs qcow2-disk; CkptMode::FullVm requires the
/// Qcow2Full backend.
RunResult run_synthetic(core::Cloud& cloud, const SyntheticRun& run,
                        CkptMode mode);

/// Runs the elastic restart scenario (BlobCR or qcow2-disk backend;
/// qcow2-full cannot rescale and is refused by the session).
ElasticResult run_elastic(core::Cloud& cloud, const ElasticRun& run);

/// Runs the CM1 case study (AppLevel or ProcessBlcr).
RunResult run_cm1(core::Cloud& cloud, const Cm1Run& run, CkptMode mode);

}  // namespace blobcr::apps
