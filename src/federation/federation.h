// federation::Fabric: joins several BlobStores — one per availability zone —
// into one logical checkpoint repository (the "cross-repo federation" of
// BlobCR deployed across IaaS zones).
//
// Responsibilities:
//  - Zone directory: which store owns which blob (the high bits of every
//    BlobId encode its home zone), which compute nodes sit in which zone,
//    and which zones are still alive.
//  - The repository's one restart fetch: an in-zone chunk of a live zone
//    reads from its own store; any other chunk is served from the reader's
//    own zone when any copy lives there, then from a sibling zone's replica
//    over the shaped wide-area traffic class, then from the origin zone,
//    and finally — content-addressed fallback — from any live same-content
//    chunk the shared digest index knows about.
//  - Asynchronous replication, driven off the flush agent's drain (the same
//    place the peer-parity encode stage runs): every drained commit's new
//    chunks get one "floor" copy in the origin's buddy zone, and — within a
//    per-drain byte budget — hot chunks (most manifest references first,
//    the same popularity metric the restart prefetch scheduler sorts by)
//    are pushed to the remaining sibling zones.
//  - Zone-loss failover: the drain also registers a full leaf manifest per
//    published version with the federation. When a whole zone dies, a
//    surviving zone adopts the dead version metadata-only
//    (BlobClient::adopt_leaves) and restart reads resolve chunk-by-chunk
//    through the nearest-zone path above. Checkpoint-catalog records are
//    replicated as opaque frames so a fresh driver on a survivor can still
//    list and select checkpoints.
//
// Replica copies keep their origin ChunkId (ids are globally unique across
// zones — each store's id counters are seeded in a disjoint range), so the
// directory here is the only extra metadata. The origin store's GC sweeps
// only its own providers; this fabric observes every store's GC
// (blob::GcObserver) and erases the cross-zone copies (and directory
// entries) of the chunks it sweeps, so replicas neither leak nor dangle.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blob/client.h"
#include "blob/store.h"
#include "blob/types.h"
#include "common/buffer.h"
#include "common/rangeset.h"
#include "net/fabric.h"
#include "net/tenant.h"
#include "sim/sim.h"

namespace blobcr::reduce {
class ChunkDigestIndex;
}

namespace blobcr::federation {

struct FederationConfig {
  /// Number of availability zones. 1 (default) = a 1-zone fabric over the
  /// cloud's single store: enabled() is false, so no replication, WAN
  /// routing or failover engages.
  std::size_t zones = 1;
  /// Wide-area traffic class between zones: one-way latency and a per-flow
  /// application rate cap layered on the NIC fair share (net::Fabric::Shape).
  sim::Duration wan_latency = 2 * sim::kMillisecond;
  double wan_bandwidth_bps = 50e6;
  /// Per-drain byte budget for extra hot-chunk copies beyond the floor
  /// (pushed popularity-first to every remaining sibling zone). 0 = floor
  /// only. Only meaningful with 3+ zones.
  std::uint64_t hot_budget_bytes = 0;
};

class Fabric final : public blob::GcObserver {
 public:
  /// BlobIds carry their home zone in bits [40, 64); ChunkIds in [48, 64).
  /// Zone 0's ranges start at 1, so single-zone ids decode to 0.
  static constexpr unsigned kBlobZoneShift = 40;
  static constexpr unsigned kChunkZoneShift = 48;

  Fabric(sim::Simulation& sim, net::Fabric& net, FederationConfig cfg)
      : sim_(&sim), net_(&net), cfg_(cfg) {}
  ~Fabric() override;

  /// Registers one zone: its store plus the contiguous compute-node block
  /// [compute_begin, compute_end) it hosts. Call once per zone, in zone-id
  /// order; registers this fabric as a GC observer of the store.
  void add_zone(blob::BlobStore* store, net::NodeId compute_begin,
                net::NodeId compute_end);

  std::size_t zones() const { return zones_.size(); }
  bool enabled() const { return zones_.size() > 1; }
  const FederationConfig& config() const { return cfg_; }

  static std::uint32_t zone_of_blob(blob::BlobId id) {
    return static_cast<std::uint32_t>(id >> kBlobZoneShift);
  }
  /// Zone hosting a compute node (service nodes resolve to zone 0).
  std::uint32_t zone_of_node(net::NodeId node) const;
  blob::BlobStore* store(std::uint32_t zone) const {
    return zones_[zone].store;
  }
  /// The store owning a blob (decoded from the id; clamped to zone 0 for
  /// out-of-range ids). nullptr on a fabric with no zones.
  blob::BlobStore* store_of_blob(blob::BlobId id) const;

  bool alive(std::uint32_t zone) const {
    return zone < zones_.size() && !zones_[zone].dead;
  }
  std::uint32_t first_live_zone() const;
  /// Fail-stop of an entire zone: every data provider of its store dies and
  /// the zone stops being a fetch/replication candidate. The store's
  /// in-memory control plane is considered lost with it — survivors work
  /// from federated manifests and replicated catalog frames only.
  void fail_zone(std::uint32_t zone);

  net::Fabric::Shape wan_shape() const {
    return {cfg_.wan_latency, cfg_.wan_bandwidth_bps};
  }

  /// Shared digest index for the content-addressed last-resort fetch path
  /// (same content stored under another ChunkId in a live zone).
  void set_digest_index(reduce::ChunkDigestIndex* index) { index_ = index; }

  // --- drain-side replication ----------------------------------------------

  /// Called by the flush agent after a drained commit publishes (the
  /// CommitStage::Replicate boundary): registers the version's full leaf
  /// manifest (failover metadata, shipped to sibling zones over the WAN
  /// class), then copies the commit's new chunks — floor copy to the buddy
  /// zone, plus popularity-ordered hot copies within the per-drain budget.
  /// `dirty` is the commit's device byte ranges (what is new vs. inherited).
  sim::Task<> replicate_commit(blob::BlobClient& client, blob::BlobId blob,
                               blob::VersionId version,
                               const common::RangeSet& dirty);

  // --- nearest-zone fetch ---------------------------------------------------

  struct FetchResult {
    common::Buffer data;
    bool wan = false;  // served from outside the reader's zone
  };
  /// The repository's one chunk fetch: fetches and decodes one leaf for a
  /// reader on `dst` (a Zero hole decodes to zeros with no transfer). A
  /// chunk of the reader's own zone, while that zone lives, is read from
  /// its store like any in-zone read (BlobClient::fetch_stored: listed
  /// replicas, then locate()). Any other chunk resolves to the nearest zone
  /// holding the content: local-zone copy -> sibling-zone replica (WAN) ->
  /// origin zone (WAN) -> digest-index content fallback. Throws BlobError
  /// when no live copy is reachable.
  /// `tenant` is the restarting tenant; every provider touch (local or
  /// WAN) is admitted at that zone's provider-io gate under it.
  sim::Task<FetchResult> fetch_decoded(const blob::ChunkLocation& loc,
                                       net::NodeId dst, net::TenantId tenant);

  // --- zone-loss restart failover ------------------------------------------

  /// Resolves a checkpoint image for restart on `node`. Owning zone alive,
  /// a 1-zone fabric, or no snapshot (image or version 0): identity, with
  /// no simulated cost. Owning zone dead: adopts the version into a
  /// surviving zone's store (metadata-only rebuild over the federated
  /// manifest, leaf tuples verbatim) and returns the adopted (blob,
  /// version). Idempotent per (image, version). Throws when the zone is
  /// dead and no manifest was ever replicated (the version never drained).
  sim::Task<std::pair<blob::BlobId, blob::VersionId>> resolve_restart(
      blob::BlobId image, blob::VersionId version, net::NodeId node,
      net::TenantId tenant);

  bool has_manifest(blob::BlobId blob, blob::VersionId version) const {
    return manifests_.contains({blob, version});
  }

  // --- catalog record replication ------------------------------------------

  /// Replicates one encoded catalog frame (opaque bytes, keyed by catalog
  /// name and record id; latest write wins) to every sibling zone over the
  /// WAN class. A fresh Catalog opened on a survivor after zone loss
  /// recovers its record set from these.
  sim::Task<> replicate_catalog(const std::string& name,
                                std::uint64_t record_id, common::Buffer frame,
                                net::NodeId src);
  /// Replicated frames for one catalog, ordered by record id; nullptr when
  /// none were ever replicated.
  const std::map<std::uint64_t, common::Buffer>* catalog_records(
      const std::string& name) const {
    const auto it = catalog_.find(name);
    return it == catalog_.end() ? nullptr : &it->second;
  }

  // --- GC ------------------------------------------------------------------

  /// GC observer: a zone store swept these chunks, so their cross-zone
  /// copies and directory entries go too.
  void forget_chunks(const std::vector<blob::ChunkId>& ids) override;

  // --- counters -------------------------------------------------------------

  std::uint64_t replicated_bytes() const { return replicated_bytes_; }
  std::uint64_t replicated_chunks() const { return replicated_chunks_; }
  std::uint64_t wan_fetch_bytes() const { return wan_fetch_bytes_; }
  std::uint64_t manifest_bytes() const { return manifest_bytes_; }
  std::uint64_t catalog_bytes() const { return catalog_bytes_; }
  /// Every byte that crossed a zone boundary on the federation's behalf.
  std::uint64_t cross_zone_bytes() const {
    return replicated_bytes_ + wan_fetch_bytes_ + manifest_bytes_ +
           catalog_bytes_;
  }
  std::size_t replica_entries() const { return replicas_.size(); }
  std::uint32_t popularity(blob::ChunkId id) const {
    const auto it = popular_.find(id);
    return it == popular_.end() ? 0 : it->second;
  }

 private:
  struct Zone {
    blob::BlobStore* store = nullptr;
    net::NodeId compute_begin = 0;
    net::NodeId compute_end = 0;
    bool dead = false;
  };
  struct Replica {
    std::uint32_t zone = 0;
    net::NodeId node = 0;
  };
  struct Manifest {
    std::uint64_t size = 0;
    std::uint64_t chunk_size = 0;
    std::vector<std::pair<std::uint64_t, blob::ChunkLocation>> leaves;
  };

  /// One WAN copy of `loc` into `dest` (skips if a copy already exists
  /// there, or no live source/target remains). True iff bytes moved.
  sim::Task<bool> replicate_chunk(blob::ChunkLocation loc, std::uint32_t dest);
  /// One fetch attempt over a fixed location, walking local-zone copies,
  /// then sibling-zone replicas (WAN), then the origin zone. nullopt when
  /// no live copy of this exact chunk remains.
  sim::Task<std::optional<FetchResult>> try_fetch(net::TenantId tenant,
                                                  blob::ChunkLocation loc,
                                                  net::NodeId dst);
  /// A live provider currently holding `loc` (origin replicas first, then
  /// the cross-zone directory); sets *src_zone. nullptr when every copy is
  /// gone.
  blob::DataProvider* find_source(const blob::ChunkLocation& loc,
                                  std::uint32_t* src_zone) const;
  /// Next live zone after `origin` in ring order; zones() when none.
  std::uint32_t buddy_of(std::uint32_t origin) const;

  sim::Simulation* sim_;
  net::Fabric* net_;
  FederationConfig cfg_;
  reduce::ChunkDigestIndex* index_ = nullptr;
  std::vector<Zone> zones_;
  /// ChunkId -> cross-zone copies (the origin's own replicas live in the
  /// leaf's ChunkLocation, not here). Survives the origin store's death.
  std::unordered_map<blob::ChunkId, std::vector<Replica>> replicas_;
  /// ChunkId -> manifest reference count: how many registered version
  /// manifests (across all instances and commits) point at this chunk. The
  /// hot-chunk replicator orders by this — the same most-shared-first
  /// metric the restart prefetch scheduler uses.
  std::unordered_map<blob::ChunkId, std::uint32_t> popular_;
  std::map<std::pair<blob::BlobId, blob::VersionId>, Manifest> manifests_;
  /// (dead image, version) -> adopted (blob, version): failover adoptions
  /// are cached so every restarting instance of a snapshot shares one
  /// metadata rebuild.
  std::map<std::pair<blob::BlobId, blob::VersionId>,
           std::pair<blob::BlobId, blob::VersionId>>
      adopted_;
  std::map<std::string, std::map<std::uint64_t, common::Buffer>> catalog_;

  std::uint64_t replicated_bytes_ = 0;
  std::uint64_t replicated_chunks_ = 0;
  std::uint64_t wan_fetch_bytes_ = 0;
  std::uint64_t manifest_bytes_ = 0;
  std::uint64_t catalog_bytes_ = 0;
};

}  // namespace blobcr::federation
