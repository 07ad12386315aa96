// Asynchronous commit pipeline: configuration and counters.
//
// BlobCR's paper model only requires the *local capture* of a disk snapshot
// to be synchronous — the transfer to the checkpoint repository can proceed
// in the background while the VM computes (stdchk and "Checkpointing as a
// Service" both drain this way). With the pipeline enabled, the COMMIT
// ioctl freezes the dirty chunk set into a staged generation and returns a
// provisional version id immediately; a per-node FlushAgent then drains
// staged generations through the regular commit path (reduction, placement,
// replication, metadata) and publishes each version atomically when its
// drain completes. The app-blocked interval shrinks from "ship everything"
// to "freeze the difference log", which shifts the Young/Daly optimum in
// ft/interval.h toward more frequent checkpoints.
//
// Failure semantics: a version is *provisional* until its drain publishes
// it. Readers never observe a provisional version (the version manager
// rejects reads of pending slots), so a node failure mid-drain simply
// abandons the staged generation — dedup pins and digest-index entries are
// withdrawn by the commit guard exactly as for failed synchronous commits,
// and the last fully-published version stays restorable bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.h"

namespace blobcr::flush {

/// Staged-but-undrained generations a FlushAgent holds before submit()
/// blocks the caller (the VM is still paused during submit, so this is the
/// backpressure bound on local staging memory).
constexpr std::size_t kMaxPending = 2;

/// Each commit becomes its own staged generation and publishes its own
/// version, in submission order.
struct FlushConfig {
  /// Master switch: when false, COMMIT is the fully synchronous path.
  bool enabled = false;
};

struct FlushStats {
  std::uint64_t commits_staged = 0;    // generations frozen
  std::uint64_t drains_completed = 0;  // versions published
  std::uint64_t drains_failed = 0;
  std::uint64_t staged_bytes = 0;      // payload frozen at submit
  std::uint64_t backpressure_waits = 0;
  /// Time submit() held its callers (reservation RPC + backpressure): the
  /// app-blocked share of the pipeline.
  sim::Duration blocked_time = 0;
  /// Stage-to-publish latency, summed over completed drains.
  sim::Duration drain_time = 0;
};

}  // namespace blobcr::flush
