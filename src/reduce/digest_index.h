// ChunkDigestIndex: content-addressed index over stored chunks (keyed on
// the XXH64 content digest from common/digest.h via Buffer::digest,
// qualified by the raw chunk length). Repository-scoped by default
// (ReductionConfig::shared_index, Cloud-owned) so a chunk one tenant
// committed is a dedup hit for every rank of every job and for every later
// snapshot version; shared_index = false gives each deployment a private
// index (the isolated-baseline ablation).
//
// The index is hash-sharded (ReductionConfig::index_shards): each shard
// owns its slice of the key space, its own per-shard stats, and — when a
// service is attached — its own fair request queue, so tenant counts in the
// hundreds do not serialize the commit path on one metadata lock. Shard
// routing depends only on (digest, raw_size): the same content always lands
// in the same shard no matter which tenant commits it, so cross-shard dedup
// needs no cross-shard communication. Mutations (record, forget_chunks)
// stay synchronous — commit guards invalidate entries from destructors
// during frame unwinding, where no co_await is possible; only the lookup
// path (the per-chunk hot path) goes through the shard queues.
//
// Entries are recorded only after a chunk reached all of its replicas (by
// BlobClient's reduced commit path), so the index never references
// in-flight data.
// The index observes the GC of every store it serves (blob::GcObserver,
// registered by its owner): forget_chunks drops the entries of reclaimed
// chunks, since a stale hit after GC would silently resurrect a deleted
// chunk. It also holds the in-flight dedup pins: a Ref it hands out is
// pinned (pin) until the referencing commit publishes or fails
// (release_pins), because no tree shows that reference yet. While a GC
// epoch is open (gc_epoch), every lookup hit is logged: a Ref taken
// mid-epoch is invisible both to the sweep's tree walk and — once its commit
// publishes and unpins — to the pins, so the epoch log is what keeps the
// sweep from reclaiming content referenced by a commit that raced the mark.
// collect_pins reports the pins and the log together.
//
// Collision caveat: a cross-commit hit is trusted on (64-bit XXH64 digest,
// raw length) equality alone — the indexed payload lives on remote
// providers, so byte verification would cost the very transfer dedup
// exists to avoid. XXH64 is not collision-resistant; a colliding pair of
// same-length chunks would silently alias, corrupting one on read-back.
// That is accepted for this simulator (synthetic checkpoint content); a
// production store would key on a cryptographic digest. Intra-commit
// aliases, where both payloads are in memory, ARE byte-verified by
// BlobClient before collapsing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blob/types.h"
#include "common/rng.h"
#include "net/service.h"
#include "sim/sim.h"

namespace blobcr::reduce {

class ChunkDigestIndex final : public blob::GcObserver {
 public:
  struct Key {
    std::uint64_t digest = 0;
    std::uint32_t raw_size = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          common::mix64(k.digest ^ (static_cast<std::uint64_t>(k.raw_size)
                                    << 32)));
    }
  };

  /// Per-shard traffic counters (tests assert shard confinement on these;
  /// the shard-sweep bench reports lookup throughput from them).
  struct ShardStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t records = 0;
    std::uint64_t forgets = 0;
  };

  explicit ChunkDigestIndex(std::size_t shards = 1)
      : shards_(std::max<std::size_t>(1, shards)) {}

  std::size_t shard_count() const { return shards_.size(); }
  /// Shard routing is a pure function of content identity — never of the
  /// committing tenant or chunk id — so identical content always resolves
  /// in one shard.
  std::size_t shard_of(std::uint64_t digest, std::uint32_t raw_size) const {
    return KeyHash{}(Key{digest, raw_size}) % shards_.size();
  }
  const ShardStats& shard_stats(std::size_t shard) const {
    return shards_[shard].stats;
  }

  /// Attaches one simulated request queue per shard (one worker each: a
  /// shard's lock). lookup_queued then charges `lookup_cost` per lookup at
  /// the owning shard's queue, in the order `fair_over` sets (see
  /// qos::AdmissionPlane::fair_over). Without attach (the default, cost 0)
  /// lookups stay free in-process — the pre-sharding timing model.
  void attach_service(sim::Simulation& sim, sim::Duration lookup_cost,
                      const qos::TenantRegistry* fair_over) {
    if (!queues_.empty() || lookup_cost <= 0) return;
    queues_.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      queues_.push_back(std::make_unique<net::ServiceQueue>(
          sim, "digest-shard-" + std::to_string(s), lookup_cost, fair_over));
    }
  }
  bool service_attached() const { return !queues_.empty(); }

  /// Location of an already-stored chunk with this content, or nullptr.
  /// Serving is proximity-ordered: among the same-content copies on record,
  /// one in `preferred_zone` wins; otherwise the first recorded copy serves
  /// (the single-zone behavior). Federation correctness depends on this —
  /// a dedup Ref resolved to a remote-zone copy would turn every later
  /// restart fetch of that leaf into a wide-area pull even when the content
  /// also lives locally.
  const blob::ChunkLocation* lookup(std::uint64_t digest,
                                    std::uint32_t raw_size,
                                    std::uint32_t preferred_zone = 0) const {
    const Shard& shard = shards_[shard_of(digest, raw_size)];
    ++shard.stats.lookups;
    const auto it = shard.entries.find(Key{digest, raw_size});
    if (it == shard.entries.end()) return nullptr;
    ++shard.stats.hits;
    const blob::ChunkLocation* best = &it->second.front();
    for (const blob::ChunkLocation& l : it->second) {
      if (l.zone == preferred_zone) {
        best = &l;
        break;
      }
    }
    if (open_epochs_ != 0) epoch_hits_.insert(best->id);
    return best;
  }

  /// lookup() through the owning shard's request queue (when attached):
  /// the simulated cost of taking that shard's lock under contention. Only
  /// the calling tenant's shard queue is entered — other shards keep
  /// serving concurrently.
  sim::Task<const blob::ChunkLocation*> lookup_queued(
      net::TenantId tenant, std::uint64_t digest, std::uint32_t raw_size,
      std::uint32_t preferred_zone = 0) {
    if (!queues_.empty()) {
      co_await queues_[shard_of(digest, raw_size)]->process(tenant);
    }
    co_return lookup(digest, raw_size, preferred_zone);
  }

  /// Records a stored chunk. Lookups serve the first recorded location, but
  /// later same-content chunks (concurrent ranks can store the same content
  /// twice) are kept as fallbacks: forgetting one copy — a failed commit
  /// withdrawing its orphans, or the GC reclaiming — must not de-index
  /// content that still lives at another chunk.
  void record(std::uint64_t digest, std::uint32_t raw_size,
              const blob::ChunkLocation& loc) {
    const Key key{digest, raw_size};
    if (!by_chunk_.try_emplace(loc.id, key).second) return;  // known chunk
    Shard& shard = shards_[shard_of(digest, raw_size)];
    ++shard.stats.records;
    // Stamp the content digest on the indexed location: dedup Refs copy it
    // into their leaves, so the restart data plane can recognize identical
    // content across ChunkIds (peer exchange / decoded-chunk cache keys).
    blob::ChunkLocation stamped = loc;
    stamped.digest = digest;
    shard.entries[key].push_back(std::move(stamped));
  }

  /// Invalidation (GC reclaim, failed-commit withdrawal): drops every
  /// location whose chunk is gone; remaining same-content fallbacks keep
  /// serving lookups. Each id touches only its owning shard — a failed
  /// commit's withdrawal cannot disturb (or contend with) other shards.
  void forget_chunks(const std::vector<blob::ChunkId>& ids) override {
    for (const blob::ChunkId id : ids) {
      const auto it = by_chunk_.find(id);
      if (it == by_chunk_.end()) continue;
      Shard& shard = shards_[shard_of(it->second.digest,
                                      it->second.raw_size)];
      ++shard.stats.forgets;
      const auto e = shard.entries.find(it->second);
      if (e != shard.entries.end()) {
        auto& locs = e->second;
        locs.erase(std::remove_if(
                       locs.begin(), locs.end(),
                       [id](const blob::ChunkLocation& l) { return l.id == id; }),
                   locs.end());
        if (locs.empty()) shard.entries.erase(e);
      }
      by_chunk_.erase(it);
    }
  }

  /// Distinct content keys indexed, across all shards.
  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& s : shards_) total += s.entries.size();
    return total;
  }
  std::size_t shard_size(std::size_t shard) const {
    return shards_[shard].entries.size();
  }

  // --- GC pins ---------------------------------------------------------------
  // A dedup Ref is pinned from lookup until its commit publishes or fails,
  // one count per Ref, so each referencing commit holds its own. While an
  // epoch is open every lookup hit's chunk id is also logged: a Ref taken
  // during the incremental mark may publish (and release its pin) before
  // the sweep's final pin collection, leaving the log as the only witness
  // that the chunk is reachable again. Epochs may overlap (one index serves
  // the GC of every zone store it observes), so the log counts open epochs:
  // it starts empty when the first one opens and is dropped only when the
  // last one closes, never under an epoch still marking.

  void pin(blob::ChunkId id) { ++pins_[id]; }
  void release_pins(const std::vector<blob::ChunkId>& ids) {
    for (const blob::ChunkId id : ids) {
      const auto it = pins_.find(id);
      if (it == pins_.end()) continue;
      if (--it->second == 0) pins_.erase(it);
    }
  }

  void gc_epoch(bool open) override {
    if (open) {
      if (open_epochs_++ == 0) epoch_hits_.clear();
    } else if (open_epochs_ != 0 && --open_epochs_ == 0) {
      epoch_hits_.clear();
    }
  }
  void collect_pins(std::unordered_set<blob::ChunkId>& out) const override {
    for (const auto& [id, count] : pins_) out.insert(id);
    for (const blob::ChunkId id : epoch_hits_) out.insert(id);
  }

 private:
  struct Shard {
    std::unordered_map<Key, std::vector<blob::ChunkLocation>, KeyHash> entries;
    mutable ShardStats stats;
  };

  std::vector<Shard> shards_;
  /// Chunk -> content key directory (which shard, which entry): O(1) forget
  /// routing without probing every shard.
  std::unordered_map<blob::ChunkId, Key> by_chunk_;
  std::vector<std::unique_ptr<net::ServiceQueue>> queues_;
  /// Chunks referenced by in-flight commits, one count per Ref handed out.
  std::unordered_map<blob::ChunkId, std::uint32_t> pins_;
  std::size_t open_epochs_ = 0;
  mutable std::unordered_set<blob::ChunkId> epoch_hits_;
};

}  // namespace blobcr::reduce
