#include "flush/flush_agent.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "blob/spool.h"
#include "federation/federation.h"

namespace blobcr::flush {

FlushAgent::FlushAgent(blob::BlobStore& store, federation::Fabric& federation,
                       blob::BlobClient& client, storage::Disk& disk,
                       std::uint64_t disk_stream, reduce::Reducer* reducer,
                       redundancy::Manager* redundancy)
    : store_(&store),
      client_(&client),
      disk_(&disk),
      stream_(disk_stream),
      reducer_(reducer),
      redundancy_(redundancy),
      fed_(&federation),
      work_wq_(store.simulation()),
      done_wq_(store.simulation()) {
  loop_ = store.simulation().spawn("flush-agent", drain_loop());
}

FlushAgent::~FlushAgent() {
  if (loop_ && !loop_->finished()) loop_->kill();
}

sim::Task<blob::VersionId> FlushAgent::submit(blob::BlobId blob,
                                              common::SparseFile frozen,
                                              common::RangeSet ranges) {
  if (dead_) throw blob::BlobError("flush agent fail-stopped");
  const sim::Time t0 = store_->simulation().now();
  std::uint64_t payload = 0;
  for (const common::Range& r : ranges.to_vector()) payload += r.length();

  // Backpressure: bound the staged generations held on this node.
  while (pending() >= kMaxPending) {
    ++stats_.backpressure_waits;
    co_await done_wq_.wait();
    if (dead_) throw blob::BlobError("flush agent fail-stopped");
  }

  StagedCommit c;
  c.blob = blob;
  c.data = std::move(frozen);
  c.ranges = std::move(ranges);
  c.staged_at = store_->simulation().now();
  // Reserve the version slot now: the provisional id handed back is the id
  // the drain will publish, and numbering reflects capture order.
  c.reserved = co_await store_->version_manager().reserve(
      client_->node(), blob, client_->tenant());
  if (dead_) throw blob::BlobError("flush agent fail-stopped");
  const blob::VersionId reserved = c.reserved;
  ++stats_.commits_staged;
  stats_.staged_bytes += payload;
  queue_.push_back(std::move(c));
  work_wq_.notify_all();
  stats_.blocked_time += store_->simulation().now() - t0;
  co_return reserved;
}

sim::Task<> FlushAgent::wait_drained() {
  while (!idle() && !dead_) co_await done_wq_.wait();
  if (error_ != nullptr) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    std::rethrow_exception(e);
  }
  // Sticky failure: after the original error was delivered once, later
  // waiters must still see the agent as failed — a poisoned agent never
  // becomes healthy again (the node restarts with a fresh one).
  if (dead_) throw blob::BlobError("flush agent failed; restart the node");
}

void FlushAgent::fail_stop() {
  if (dead_) return;
  dead_ = true;
  if (loop_ && !loop_->finished()) loop_->kill();
  queue_.clear();
  draining_ = false;
  if (error_ == nullptr) {
    error_ = std::make_exception_ptr(
        blob::BlobError("flush agent fail-stopped mid-drain"));
  }
  done_wq_.notify_all();
  work_wq_.notify_all();
}

sim::Task<> FlushAgent::drain_loop() {
  for (;;) {
    while (queue_.empty()) co_await work_wq_.wait();
    StagedCommit c = std::move(queue_.front());
    queue_.pop_front();
    draining_ = true;
    try {
      co_await drain_one(std::move(c));
      ++stats_.drains_completed;
    } catch (...) {
      // A failed drain poisons the agent. Every queued generation is a
      // *delta* on top of the failed one, and a drain bases its tree on the
      // latest published version — publishing a later generation over the
      // failed one's hole would create a visible version silently missing
      // the failed dirty ranges. Drop the queue, go dead, surface the
      // error; the node rolls back and restarts with a fresh agent.
      ++stats_.drains_failed;
      if (error_ == nullptr) error_ = std::current_exception();
      dead_ = true;
      queue_.clear();
      draining_ = false;
      done_wq_.notify_all();
      work_wq_.notify_all();
      co_return;
    }
    draining_ = false;
    done_wq_.notify_all();
  }
}

sim::Task<> FlushAgent::drain_one(StagedCommit c) {
  if (probe_) co_await probe_(blob::CommitStage::Staged);

  // Spooled reads of the frozen generation: the difference log lives on the
  // local disk (blob/spool.h, shared with the synchronous commit path).
  const blob::VersionId v = co_await blob::commit_spooled(
      *client_, c.blob, c.ranges, *disk_, stream_,
      [&c](std::uint64_t offset, std::uint64_t length) {
        return c.data.read(offset, length);
      },
      {.reducer = reducer_,
       .reserved_version = c.reserved,
       .probe = probe_ ? &probe_ : nullptr});

  // Peer parity tier: the drained chunks fold into XOR groups across the
  // deployment (redundancy::Manager). Fired after publish — a kill at this
  // boundary leaves a published-but-unprotected version, never a torn one.
  if (probe_) co_await probe_(blob::CommitStage::ParityEncode);
  if (redundancy_ != nullptr) {
    std::uint64_t chunk = client_->known_chunk_size(c.blob);
    if (chunk == 0) chunk = store_->config().default_chunk_size;
    std::vector<redundancy::Manager::ChunkPayload> protect;
    for (const common::Range& r : c.ranges.to_vector()) {
      const auto refs =
          co_await client_->resolve_chunks(c.blob, v, r.begin, r.length());
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        if (ref.loc.hole()) continue;
        const std::uint64_t off = ref.index * chunk;
        if (off < r.begin || off >= r.end) continue;
        protect.push_back(redundancy::Manager::ChunkPayload{
            core::ChunkKey::of(ref.loc), ref.loc.id,
            c.data.read(off, ref.loc.logical())});
      }
    }
    co_await redundancy_->encode_commit(client_->node(), std::move(protect));
  }

  // Cross-zone replication: the published version's manifest ships to every
  // sibling zone (so survivors can adopt it after a zone loss) and the
  // commit's chunks copy out floor-first, then popularity-ordered within
  // the hot budget. Also after publish: a kill here leaves a published-but-
  // unreplicated version, never a torn one.
  if (fed_->enabled()) {
    if (probe_) co_await probe_(blob::CommitStage::Replicate);
    co_await fed_->replicate_commit(*client_, c.blob, v, c.ranges);
  }
  stats_.drain_time += store_->simulation().now() - c.staged_at;
}

}  // namespace blobcr::flush
