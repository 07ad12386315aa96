// The paper's extended coordinated checkpointing protocol (§3.3):
//   1. drain communication channels (marker messages => a barrier: no rank
//      proceeds until everyone stopped sending and received what was in
//      flight);
//   2. dump process state to guest files — either the application's own
//      writer or a BLCR dump;
//   3. sync(2) the guest file system so the virtual disk is consistent;
//   4. one rank per VM asks the node-local checkpointing proxy to snapshot
//      the virtual disk;
//   5. barrier, then resume application execution.
#pragma once

#include <functional>

#include "guestfs/simplefs.h"
#include "mpi/mpi.h"
#include "sim/sim.h"

namespace blobcr::mpi {

struct CoordinatedHooks {
  /// Writes this rank's state into the guest FS (app-level writer or Blcr).
  std::function<sim::Task<>()> dump;
  /// Issued by the VM leader rank only: ask the proxy for a disk snapshot.
  std::function<sim::Task<>()> request_disk_snapshot;
  /// True for exactly one rank per VM.
  bool vm_leader = false;
  /// The rank's guest file system (synced in step 3 by the leader).
  guestfs::SimpleFs* fs = nullptr;
  /// True for exactly one rank of the whole communicator (e.g. rank 0).
  bool epoch_leader = false;
  /// Asynchronous commit pipeline: awaited by the VM leader after the
  /// snapshot barrier; resolves when this VM's staged snapshot has fully
  /// published (rethrows if the drain failed). Set it on every rank or on
  /// none — it adds one collective barrier. Leave unset for synchronous
  /// commits.
  std::function<sim::Task<>()> wait_drained;
  /// Checkpoint catalog control plane (cr::Session): the epoch leader
  /// durably stages the global checkpoint record once every rank's snapshot
  /// is captured (still provisional under the async pipeline), and — after
  /// the drain barrier — publishes it Complete, making the line selectable
  /// for restart. Each adds one collective barrier when set (set both on
  /// every rank or on none; only the epoch leader's are invoked). A drain
  /// that dies between the two leaves the record staged, never a torn
  /// "complete" checkpoint.
  std::function<sim::Task<>()> stage_record;
  std::function<sim::Task<>()> publish_record;
};

/// Runs one global coordinated checkpoint from the calling rank's
/// perspective. Every rank of the communicator must call this collectively.
inline sim::Task<> coordinated_checkpoint(MpiWorld::Comm comm,
                                          CoordinatedHooks hooks) {
  // 1. Drain: marker messages stop senders; in-flight traffic completes.
  co_await comm.barrier();
  // 2. Dump process state into the guest file system.
  if (hooks.dump) co_await hooks.dump();
  // All ranks co-located on a VM must have finished dumping before the
  // leader syncs that VM's file system.
  co_await comm.barrier();
  // 3. Flush guest page cache to the virtual disk (avoids snapshotting a
  //    file system with unwritten dirty pages — see
  //    SimpleFsTest.UnsyncedDataLostOnRemount for why this matters).
  if (hooks.vm_leader && hooks.fs != nullptr) co_await hooks.fs->sync();
  // 4. Disk snapshot, one request per VM.
  if (hooks.vm_leader && hooks.request_disk_snapshot)
    co_await hooks.request_disk_snapshot();
  // 5. Everybody waits until all snapshots completed (synchronous commits)
  //    or staged (async pipeline — the VMs have already resumed), then the
  //    guest application resumes.
  co_await comm.barrier();
  // 6. Catalog staging: every rank's snapshot exists (possibly still
  //    provisional), so the epoch leader durably records the line's intent
  //    in the checkpoint catalog before the drains decide its fate.
  if (hooks.stage_record) {
    if (hooks.epoch_leader) co_await hooks.stage_record();
    co_await comm.barrier();
  }
  // 7. Async drain barrier: a "complete global checkpoint" means globally
  //    *published*, so each VM leader waits for its node's background drain
  //    before the final collective barrier. A drain failure surfaces here
  //    as a failed checkpoint, exactly like a failed synchronous commit in
  //    step 4 — and leaves the staged catalog record incomplete.
  if (hooks.wait_drained) {
    if (hooks.vm_leader) co_await hooks.wait_drained();
    co_await comm.barrier();
  }
  // 8. Catalog publication: the record flips to Complete — §3.2's "last
  //    complete global checkpoint" now durably names this line — before
  //    any rank resumes application work.
  if (hooks.publish_record) {
    if (hooks.epoch_leader) co_await hooks.publish_record();
    co_await comm.barrier();
  }
}

}  // namespace blobcr::mpi
