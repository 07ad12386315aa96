// GarbageCollector: reclaims chunks obsoleted by newer checkpoints (the
// paper's §6 future-work feature). A chunk is reclaimable iff it is
// reachable only from dropped versions — cloning means chunks can be shared
// across blobs, so the live set spans the entire store.
//
// One entry point, collect(drops): an epoch-based incremental sweep that
// drops every listed blob's versions below its floor. The mark walks the
// version manager's blob shards one at a time, yielding between shards so
// in-flight commits keep draining, and the erase phase sweeps in bounded
// batches with yields in between; there is no full-store stop-the-world
// pass. The mark has to cover every live tree of the store whichever blob
// is dropped, so a caller hands one retention pass's drops on a store to a
// single collect(): they share one epoch and one mark.
//
// The epoch protocol that keeps the concurrent walk safe against commits
// racing it:
//
//  1. Epoch open: record the chunk-id horizon (the store's next chunk id).
//     Chunks born after the open are never touched this epoch. The store's
//     GC observers hear the open (BlobStore::notify_gc_epoch), so the digest
//     indexes start logging every dedup hit; the observers' pins (in-flight
//     dedup Refs) are folded into the live set now AND at finalize.
//  2. Incremental mark: live chunks from every published tree, one version-
//     manager shard per slice. The epoch keeps one bit per tree node of the
//     store (indexed by NodeRef − the store's first ref) and walks a node
//     only the first time it reaches it, so a base-image subtree that clones
//     in several shards share is walked once per epoch, not once per shard.
//     Published nodes are immutable and the mark walks a node's whole
//     subtree on that first visit, so every chunk under a marked node is
//     live.
//  3. Candidate walk (same slice as finalize): the chunks of every drop's
//     dropped versions' trees, over the same bits. It stops at every node
//     the mark reached, since nothing under it can be reclaimed, so the
//     candidates are only the leaves no live tree shares. That is why it
//     must run after the mark: run first, it would set the bits of the
//     subtrees the dropped and live trees share, and the mark would then
//     skip live chunks.
//  4. Finalize (one atomic slice): re-collect pins + the epoch hit log,
//     decide the sweep set, tombstone every drop's version records, and
//     de-index the sweep set (notify_chunks_reclaimed) BEFORE the first
//     erase yield — after this no lookup can hand out a new Ref to a doomed
//     chunk, which is what makes the yielding erase phase safe.
//  5. Sweep: erase replicas batch by batch, wherever the provider manager's
//     placement registry says each chunk lives now, and drop its entry.
//
// Why each racing reference is covered: a Ref taken before the epoch opened
// is either still pinned at open/finalize (the index's pins) or its commit
// published, putting the chunk in a tree — if the mark already passed that
// blob's shard, the Ref's lookup... cannot have happened (pre-epoch lookups
// with post-epoch publishes hold their pin until publish, and a pin seen at
// OPEN protects the chunk even if released before finalize). A Ref taken
// during the epoch went through a lookup the index logged. A brand-new
// chunk stored during the epoch is above the horizon and reachable from no
// dropped (pre-epoch) tree.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blob/store.h"
#include "blob/types.h"
#include "sim/sim.h"

namespace blobcr::blob {

class GarbageCollector {
 public:
  explicit GarbageCollector(BlobStore& store) : store_(&store) {}

  /// Drop `blob`'s versions below `keep_from`.
  struct Drop {
    BlobId blob = 0;
    VersionId keep_from = 0;
  };

  struct Result {
    std::uint64_t reclaimed_bytes = 0;
    std::size_t chunks_deleted = 0;
    /// Candidates that survived: chunks of dropped leaves that no live tree
    /// shares, kept because a live version (possibly of another blob, via
    /// cloning or dedup) reaches the same chunk through another leaf, an
    /// in-flight pin holds it, or a mid-epoch dedup hit logged it. Leaves
    /// under a subtree a live tree shares are not candidates at all.
    std::size_t chunks_kept_shared = 0;
    /// Candidates skipped because they were born after the epoch opened
    /// (defensive: a dropped pre-epoch tree cannot reference them).
    std::size_t deferred_post_epoch = 0;
    /// Scheduler slices the mark spread over (one per version-manager
    /// shard) and erase batches the sweep spread over.
    std::size_t mark_slices = 0;
    std::size_t sweep_batches = 0;
    /// Tree nodes the epoch walked, mark and candidate walk together: each
    /// node at most once, however many shards' blobs share it.
    std::size_t nodes_walked = 0;
  };

  /// Drops every listed blob's versions below its keep_from and reclaims
  /// the chunks no live version of any blob reaches any more, all in one
  /// epoch: one mark serves every drop. Commits keep running between
  /// slices, so it must run inside a simulation process (it yields).
  sim::Task<Result> collect(std::vector<Drop> drops) {
    Epoch e(*store_, std::move(drops));
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
    Epoch(BlobStore& store, std::vector<Drop> dropping)
        : drops(std::move(dropping)),
          horizon(store.chunk_id_counter()),
          open_on_(&store) {
      for (const Drop& d : drops) {
        VersionId& floor = keep_from[d.blob];
        floor = std::max(floor, d.keep_from);
      }
      store.notify_gc_epoch(true);
      // Pins at open: a Ref taken before the epoch (so never hit-logged)
      // may publish — and release its pin — while the incremental mark is
      // mid-walk; the open-time snapshot is what protects it.
      store.collect_pinned_chunks(live);
    }
    Epoch(const Epoch&) = delete;
    Epoch& operator=(const Epoch&) = delete;
    /// A sweep killed before finalize still closes its epoch, so the digest
    /// indexes' count of open epochs cannot stick above zero.
    ~Epoch() { close(); }
    void close() {
      if (open_on_ != nullptr) {
        std::exchange(open_on_, nullptr)->notify_gc_epoch(false);
      }
    }

    std::vector<Drop> drops;
    /// Each dropped blob's floor (the highest keep_from listed for it).
    std::unordered_map<BlobId, VersionId> keep_from;
    /// Chunk ids at/above this were allocated after the epoch opened.
    ChunkId horizon = 0;
    std::unordered_set<ChunkId> live;
    /// One bit per tree node of the store, indexed by NodeRef − first ref:
    /// set the first time the mark or the candidate walk reaches the node.
    std::vector<bool> walked;
    std::unordered_map<ChunkId, ChunkLocation> dropped;
    std::vector<ChunkLocation> swept;  // decided + de-indexed, pending erase
    Result result;

   private:
    BlobStore* open_on_;
  };

  void mark_shard(std::size_t shard, Epoch& e) {
    cover_new_nodes(e);
    store_->version_manager().for_each_blob_in_shard(
        shard, [&](const BlobMeta& meta) {
          const auto drop = e.keep_from.find(meta.id);
          const VersionId floor =
              drop == e.keep_from.end() ? 0 : drop->second;
          for (const VersionInfo& v : meta.versions) {
            // root == 0 covers tombstones and pending (async-reserved)
            // slots: an in-flight drain's version has no tree yet; its
            // chunk references are protected by the index's pins and the
            // epoch hit log, and its freshly-stored chunks are above the
            // horizon, so the sweep can never touch them.
            if (v.pending || v.root == 0) continue;
            if (v.id < floor) continue;  // dropped
            mark_live(v.root, e);
          }
        });
  }

  void collect_candidates(Epoch& e) {
    cover_new_nodes(e);
    for (const Drop& d : e.drops) {
      const BlobMeta& target = store_->version_manager().peek(d.blob);
      for (const VersionInfo& v : target.versions) {
        if (v.pending || v.root == 0 || v.id >= d.keep_from) continue;
        collect_chunks(v.root, e);
      }
    }
  }

  void finalize(Epoch& e) {
    // Fresh pins + the epoch hit log (the indexes report both through
    // GcObserver::collect_pins).
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
    for (const Drop& d : e.drops) {
      store_->version_manager().drop_version_records(d.blob, d.keep_from);
    }
    // De-index BEFORE any erase (and before the concurrent sweep's first
    // yield): a dedup hit on a doomed chunk after this point is impossible,
    // so the batched erases need no further liveness re-checks. This also
    // covers node-loss-orphaned chunks that have no replica left to erase.
    store_->notify_chunks_reclaimed(swept_ids);
    e.close();
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

  /// Grows the epoch's bits to every NodeRef allocated so far (commits
  /// keep building trees between slices).
  void cover_new_nodes(Epoch& e) {
    e.walked.resize(store_->node_ref_counter() - store_->first_node_ref());
  }

  /// The node behind `ref` on the epoch's first visit to it; nullptr when
  /// the walk was already there, or for a ref this store never issued or a
  /// node it does not hold (nothing below it to walk).
  const TreeNode* first_visit(NodeRef ref, Epoch& e) {
    const NodeRef first = store_->first_node_ref();
    if (ref < first || ref - first >= e.walked.size()) return nullptr;
    if (e.walked[ref - first]) return nullptr;
    e.walked[ref - first] = true;
    const TreeNode* node = store_->metadata().peek_node(ref);
    if (node != nullptr) ++e.result.nodes_walked;
    return node;
  }

  void mark_live(NodeRef ref, Epoch& e) {
    const TreeNode* node = first_visit(ref, e);
    if (node == nullptr) return;
    if (node->leaf) {
      if (node->chunk.id != 0) e.live.insert(node->chunk.id);
      return;
    }
    mark_live(node->left, e);
    mark_live(node->right, e);
  }

  void collect_chunks(NodeRef ref, Epoch& e) {
    // Stops at nodes the mark reached: every chunk below them is live.
    const TreeNode* node = first_visit(ref, e);
    if (node == nullptr) return;
    if (node->leaf) {
      // id 0 marks zero-suppressed (payload-free) leaves: nothing to sweep.
      if (node->chunk.id != 0) e.dropped[node->chunk.id] = node->chunk;
      return;
    }
    collect_chunks(node->left, e);
    collect_chunks(node->right, e);
  }

  BlobStore* store_;
};

}  // namespace blobcr::blob
