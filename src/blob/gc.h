// GarbageCollector: reclaims chunks obsoleted by newer checkpoints (the
// paper's §6 future-work feature). A chunk is reclaimable iff it is
// reachable only from dropped versions — cloning means chunks can be shared
// across blobs, so the live set spans the entire store.
//
// Two entry points over one epoch protocol:
//
//  * collect() — the classic synchronous sweep: the whole epoch runs in one
//    scheduler slice (no co_await), so nothing can interleave. Call sites
//    that run outside a simulation process keep working.
//  * collect_concurrent() — the epoch-based incremental sweep: the mark
//    walks the version manager's blob shards one at a time, yielding
//    between shards so in-flight commits keep draining, and the erase phase
//    sweeps in bounded batches with yields in between. No full-store
//    stop-the-world pass.
//
// The epoch protocol that keeps the concurrent walk safe against commits
// racing it:
//
//  1. Epoch open: record the chunk-id horizon (the store's next chunk id).
//     Chunks born after the open are never touched this epoch. Digest
//     indexes start logging every dedup hit (BlobStore::notify_gc_epoch);
//     in-flight pins are folded into the live set now AND at finalize.
//  2. Incremental mark: live chunks from every published tree, one version-
//     manager shard per slice.
//  3. Finalize (one atomic slice): re-collect pins + the epoch hit log,
//     decide the sweep set, and de-index it (notify_chunks_reclaimed)
//     BEFORE the first erase yield — after this no lookup can hand out a
//     new Ref to a doomed chunk, which is what makes the yielding erase
//     phase safe.
//  4. Sweep: erase replicas batch by batch, wherever the provider manager's
//     placement registry says each chunk lives now, and drop its entry.
//
// Why each racing reference is covered: a Ref taken before the epoch opened
// is either still pinned at open/finalize (pin sources) or its commit
// published, putting the chunk in a tree — if the mark already passed that
// blob's shard, the Ref's lookup... cannot have happened (pre-epoch lookups
// with post-epoch publishes hold their pin until publish, and a pin seen at
// OPEN protects the chunk even if released before finalize). A Ref taken
// during the epoch went through a lookup the index logged. A brand-new
// chunk stored during the epoch is above the horizon and reachable from no
// dropped (pre-epoch) tree.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blob/store.h"
#include "blob/types.h"
#include "sim/sim.h"

namespace blobcr::blob {

class GarbageCollector {
 public:
  explicit GarbageCollector(BlobStore& store) : store_(&store) {}

  struct Result {
    std::uint64_t reclaimed_bytes = 0;
    std::size_t chunks_deleted = 0;
    /// Chunks referenced by dropped versions that survived because another
    /// live version (possibly of another blob, via cloning or dedup), an
    /// in-flight pin, or a mid-epoch dedup hit still references them.
    std::size_t chunks_kept_shared = 0;
    /// Candidates skipped because they were born after the epoch opened
    /// (defensive: a dropped pre-epoch tree cannot reference them).
    std::size_t deferred_post_epoch = 0;
    /// Concurrent sweep only: scheduler slices the mark/erase phases spread
    /// over (1 each for the synchronous collect()).
    std::size_t mark_slices = 0;
    std::size_t sweep_batches = 0;
  };

  /// Drops versions < keep_from of `blob` and reclaims chunks no longer
  /// reachable from any live version of any blob. Synchronous: the whole
  /// epoch runs in one slice.
  Result collect(BlobId blob, VersionId keep_from) {
    Epoch e = open_epoch(blob, keep_from);
    const std::size_t shards = store_->version_manager().shard_count();
    for (std::size_t s = 0; s < shards; ++s) mark_shard(s, e);
    e.result.mark_slices = 1;
    collect_candidates(e);
    finalize(e);
    erase_range(e, 0, e.swept.size());
    e.result.sweep_batches = 1;
    return e.result;
  }

  /// The epoch-based concurrent sweep: same result contract as collect(),
  /// but commits keep running between slices. Must run inside a simulation
  /// process (it yields).
  sim::Task<Result> collect_concurrent(BlobId blob, VersionId keep_from) {
    Epoch e = open_epoch(blob, keep_from);
    const std::size_t shards = store_->version_manager().shard_count();
    for (std::size_t s = 0; s < shards; ++s) {
      mark_shard(s, e);
      ++e.result.mark_slices;
      co_await store_->simulation().yield();
    }
    collect_candidates(e);
    // Finalize is one atomic slice: the liveness decision, the de-index and
    // the version-record tombstoning happen with no interleaving point, so
    // no commit can take a Ref between "doomed" and "unreachable".
    finalize(e);
    for (std::size_t begin = 0; begin < e.swept.size();
         begin += kSweepBatch) {
      const std::size_t end =
          begin + kSweepBatch < e.swept.size() ? begin + kSweepBatch
                                               : e.swept.size();
      erase_range(e, begin, end);
      ++e.result.sweep_batches;
      co_await store_->simulation().yield();
    }
    co_return e.result;
  }

 private:
  static constexpr std::size_t kSweepBatch = 64;

  struct Epoch {
    BlobId blob = 0;
    VersionId keep_from = 0;
    /// Chunk ids at/above this were allocated after the epoch opened.
    ChunkId horizon = 0;
    std::unordered_set<ChunkId> live;
    std::unordered_map<ChunkId, ChunkLocation> dropped;
    std::vector<ChunkLocation> swept;  // decided + de-indexed, pending erase
    Result result;
  };

  Epoch open_epoch(BlobId blob, VersionId keep_from) {
    Epoch e;
    e.blob = blob;
    e.keep_from = keep_from;
    e.horizon = store_->chunk_id_counter();
    store_->notify_gc_epoch(true);
    // Pins at open: a Ref taken before the epoch (so never hit-logged) may
    // publish — and release its pin — while the incremental mark is mid-
    // walk; the open-time snapshot is what protects it.
    store_->collect_pinned_chunks(e.live);
    return e;
  }

  void mark_shard(std::size_t shard, Epoch& e) {
    std::unordered_set<NodeRef> visited;
    store_->version_manager().for_each_blob_in_shard(
        shard, [&](const BlobMeta& meta) {
          for (const VersionInfo& v : meta.versions) {
            // root == 0 covers tombstones and pending (async-reserved)
            // slots: an in-flight drain's version has no tree yet; its
            // chunk references are protected by the reducer's pins and the
            // epoch hit log, and its freshly-stored chunks are above the
            // horizon, so the sweep can never touch them.
            if (v.pending || v.root == 0) continue;
            if (meta.id == e.blob && v.id < e.keep_from) continue;  // dropped
            mark_live(v.root, e.live, visited);
          }
        });
  }

  void collect_candidates(Epoch& e) {
    std::unordered_set<NodeRef> visited;
    const BlobMeta& target = store_->version_manager().peek(e.blob);
    for (const VersionInfo& v : target.versions) {
      if (v.pending || v.root == 0 || v.id >= e.keep_from) continue;
      collect_chunks(v.root, e.dropped, visited);
    }
  }

  void finalize(Epoch& e) {
    // Fresh pins + the epoch hit log (the indexes surface logged hits
    // through the same pin-source interface).
    store_->collect_pinned_chunks(e.live);
    std::vector<ChunkId> swept_ids;
    for (const auto& [cid, loc] : e.dropped) {
      // Reference check before reclaiming: with cloning and content-
      // addressed dedup a chunk may back leaves of many trees, so it is
      // reclaimable only when no live version of any blob reaches it.
      if (e.live.count(cid) != 0) {
        ++e.result.chunks_kept_shared;
        continue;
      }
      if (cid >= e.horizon) {
        ++e.result.deferred_post_epoch;
        continue;
      }
      e.swept.push_back(loc);
      swept_ids.push_back(cid);
    }
    store_->version_manager().drop_version_records(e.blob, e.keep_from);
    // De-index BEFORE any erase (and before the concurrent sweep's first
    // yield): a dedup hit on a doomed chunk after this point is impossible,
    // so the batched erases need no further liveness re-checks. This also
    // covers node-loss-orphaned chunks that have no replica left to erase.
    store_->notify_chunks_reclaimed(swept_ids);
    store_->notify_gc_epoch(false);
  }

  void erase_range(Epoch& e, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const ChunkLocation& loc = e.swept[i];
      // Repair and scavenge record a chunk's new homes only in the
      // placement registry, so erase it wherever the registry says it lives
      // now. Another zone's chunk (an adopted leaf) has an id from that
      // zone's counter, which this registry may hold for a different chunk.
      std::vector<net::NodeId> homes;
      if (loc.zone == store_->config().zone) {
        homes = store_->provider_manager().forget(loc.id);
      }
      if (homes.empty()) homes = loc.replicas;
      bool erased_any = false;
      for (const net::NodeId node : homes) {
        if (DataProvider* p = store_->provider_at(node)) {
          erased_any = p->erase(loc.id) || erased_any;
        }
      }
      if (erased_any) {
        ++e.result.chunks_deleted;
        e.result.reclaimed_bytes += loc.size;
      }
    }
  }

  void mark_live(NodeRef ref, std::unordered_set<ChunkId>& live,
                 std::unordered_set<NodeRef>& visited) {
    if (ref == 0 || !visited.insert(ref).second) return;
    const TreeNode* node = store_->metadata().peek_node(ref);
    if (node == nullptr) return;
    if (node->leaf) {
      if (node->chunk.id != 0) live.insert(node->chunk.id);
      return;
    }
    mark_live(node->left, live, visited);
    mark_live(node->right, live, visited);
  }

  void collect_chunks(NodeRef ref,
                      std::unordered_map<ChunkId, ChunkLocation>& out,
                      std::unordered_set<NodeRef>& visited) {
    if (ref == 0 || !visited.insert(ref).second) return;
    const TreeNode* node = store_->metadata().peek_node(ref);
    if (node == nullptr) return;
    if (node->leaf) {
      // id 0 marks zero-suppressed (payload-free) leaves: nothing to sweep.
      if (node->chunk.id != 0) out[node->chunk.id] = node->chunk;
      return;
    }
    collect_chunks(node->left, out, visited);
    collect_chunks(node->right, out, visited);
  }

  BlobStore* store_;
};

}  // namespace blobcr::blob
