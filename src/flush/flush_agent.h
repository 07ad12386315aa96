// FlushAgent: the per-node drain of the asynchronous commit pipeline.
//
// MirrorDevice::ioctl_commit (async mode) freezes the dirty chunk set into
// a staged generation — a COW snapshot of the local difference log — and
// submits it here. submit() reserves the version slot (so the provisional
// id it returns is the id the drain will publish) and returns as soon as
// the generation is queued; the agent's single drain loop then ships staged
// generations FIFO through the regular commit path (reduction, placement,
// window-limited replica stores, metadata path-copy) and publishes each
// version atomically when its drain completes.
//
// Backpressure: at most kMaxPending generations are held; further submits
// block (the VM is still paused inside submit, so the pause absorbs the
// overload instead of unbounded staging memory). Every submit is its own
// generation and publishes its own version.
//
// Fail-stop: fail_stop() (node death) kills the drain mid-flight. The
// commit guard in BlobClient::write_extents_via unwinds with the coroutine
// frame, releasing dedup pins and withdrawing digest-index entries of the
// dead drain, so the repository keeps only fully-published versions.
#pragma once

#include <deque>
#include <exception>

#include "blob/client.h"
#include "blob/store.h"
#include "common/rangeset.h"
#include "common/sparse.h"
#include "flush/flush.h"
#include "redundancy/manager.h"
#include "sim/sim.h"
#include "storage/disk.h"

namespace blobcr::federation {
class Fabric;
}

namespace blobcr::flush {

class FlushAgent {
 public:
  /// `federation`: the repository fabric `store` belongs to; on a
  /// multi-zone fabric, after parity encode, the published version's
  /// manifest and hot chunks replicate asynchronously to sibling zones —
  /// CommitStage::Replicate. `redundancy` (optional): after each drain
  /// publishes, its committed chunks fold into the deployment's peer parity
  /// tier — the CommitStage::ParityEncode boundary.
  FlushAgent(blob::BlobStore& store, federation::Fabric& federation,
             blob::BlobClient& client, storage::Disk& disk,
             std::uint64_t disk_stream, reduce::Reducer* reducer,
             redundancy::Manager* redundancy = nullptr);
  ~FlushAgent();

  FlushAgent(const FlushAgent&) = delete;
  FlushAgent& operator=(const FlushAgent&) = delete;

  /// Stages one frozen generation and returns its provisional VersionId.
  /// Blocks only for the reservation round-trip and backpressure.
  sim::Task<blob::VersionId> submit(blob::BlobId blob,
                                    common::SparseFile frozen,
                                    common::RangeSet ranges);

  /// Waits until every submitted generation has published; rethrows the
  /// first drain failure (the caller's checkpoint did not complete).
  sim::Task<> wait_drained();

  /// Generations staged or draining right now.
  std::size_t pending() const { return queue_.size() + (draining_ ? 1u : 0u); }
  bool idle() const { return pending() == 0; }
  const FlushStats& stats() const { return stats_; }

  /// Test hook, awaited at every stage boundary of every drain.
  void set_stage_probe(blob::CommitProbe probe) { probe_ = std::move(probe); }

  /// Fail-stop (the node died): kills the in-flight drain, drops queued
  /// generations. Subsequent submits throw; waiters wake and fail.
  void fail_stop();
  bool failed() const { return dead_; }

 private:
  struct StagedCommit {
    blob::BlobId blob = 0;
    blob::VersionId reserved = 0;
    common::SparseFile data;   // frozen payload (the difference log)
    common::RangeSet ranges;   // chunk-rounded dirty extents
    sim::Time staged_at = 0;
  };

  sim::Task<> drain_loop();
  sim::Task<> drain_one(StagedCommit c);

  blob::BlobStore* store_;
  blob::BlobClient* client_;
  storage::Disk* disk_;
  std::uint64_t stream_;
  reduce::Reducer* reducer_;
  redundancy::Manager* redundancy_;
  federation::Fabric* fed_;  // never null
  blob::CommitProbe probe_;

  std::deque<StagedCommit> queue_;
  bool draining_ = false;
  bool dead_ = false;
  std::exception_ptr error_;
  FlushStats stats_;
  sim::WaitQueue work_wq_;  // submit -> drain loop
  sim::WaitQueue done_wq_;  // drain loop -> wait_drained / backpressure
  sim::ProcessPtr loop_;
};

}  // namespace blobcr::flush
