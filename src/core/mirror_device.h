// MirrorDevice: BlobCR's mirroring module (paper §3.2/§3.3, built on FUSE in
// the original). Exposes a raw-image BlockDevice to the hypervisor while:
//
//  * lazily fetching the hot content of the backing snapshot from the
//    checkpoint repository on first access ("lazy transfer"), caching it on
//    the compute node's local disk;
//  * storing guest writes locally as incremental differences (COW);
//  * serving the CLONE ioctl — derive the checkpoint image from the base
//    image (zero-copy, shares all content);
//  * serving the COMMIT ioctl — publish the local modifications since the
//    last commit as one new incremental snapshot of the checkpoint image;
//  * cooperating with a deployment-wide PrefetchBus: the content-addressed
//    restart data plane. The lazy-fetch window resolves to chunk identity
//    tuples (ChunkId, digest, encoding) instead of opaque byte ranges, so a
//    chunk any instance of the deployment has already fetched-and-decoded
//    is copied peer-to-peer over the fabric (intra-deployment shaping)
//    instead of refetched from the repository, Zero holes materialize with
//    no transfer at all, and a shared per-node DecodedChunkCache decodes
//    each chunk once per node, not once per rank.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "blob/client.h"
#include "blob/store.h"
#include "common/rangeset.h"
#include "common/sparse.h"
#include "core/chunk_cache.h"
#include "flush/flush.h"
#include "img/block_device.h"
#include "storage/disk.h"

namespace blobcr::federation {
class Fabric;
}
namespace blobcr::flush {
class FlushAgent;
}
namespace blobcr::redundancy {
class Manager;
}

namespace blobcr::core {

class PrefetchBus;

class MirrorDevice : public img::BlockDevice {
 public:
  struct Config {
    std::uint64_t capacity = 0;
    std::size_t prefetch_streams = 2;  // background fetches in flight
    /// Asynchronous commit pipeline (src/flush/): when enabled, COMMIT
    /// freezes the dirty set and returns a provisional version while a
    /// background agent drains it to the repository.
    flush::FlushConfig flush;
    /// Repository tenant this device's commits and fetches run as (QoS
    /// admission + per-tenant accounting at the shared store).
    net::TenantId tenant = net::kDefaultTenant;
    /// The deployment's peer parity tier (redundancy::Manager): commits
    /// fold into XOR groups across peers, and restart gains a parity-
    /// rebuild level between peer copy and repository fetch. nullptr = off.
    redundancy::Manager* redundancy = nullptr;
    /// Multi-zone federation fabric: repository fetches whose chunk lives
    /// in a dead or foreign zone route through nearest-zone resolution
    /// (local replica, peer zone over the WAN class, origin). nullptr or a
    /// single-zone fabric = plain in-zone fetches. nullptr = off.
    federation::Fabric* federation = nullptr;
  };

  MirrorDevice(blob::BlobStore& store, net::NodeId host,
               storage::Disk& local_disk, std::uint64_t disk_stream,
               blob::BlobId backing_blob, blob::VersionId backing_version,
               const Config& cfg, PrefetchBus* bus = nullptr,
               blob::CommitReducer* reducer = nullptr,
               DecodedChunkCache* node_cache = nullptr);
  ~MirrorDevice() override;

  // --- BlockDevice ---
  std::uint64_t capacity() const override { return cfg_.capacity; }
  sim::Task<> write(std::uint64_t offset, common::Buffer data) override;
  sim::Task<common::Buffer> read(std::uint64_t offset,
                                 std::uint64_t len) override;

  // --- ioctls (invoked by the checkpointing proxy) ---
  /// Derives the checkpoint image from the backing image if not yet done.
  sim::Task<blob::BlobId> ioctl_clone();
  /// Commits local modifications since the last commit as a new snapshot.
  /// Returns the new version of the checkpoint image. With the async
  /// pipeline enabled the version is provisional (readable only once its
  /// background drain publishes it — see wait_drained()).
  sim::Task<blob::VersionId> ioctl_commit();

  /// Resolves once every provisional commit of this device has published;
  /// rethrows the first drain failure. No-op in synchronous mode.
  sim::Task<> wait_drained();

  /// The async drain agent (nullptr when the pipeline is disabled).
  flush::FlushAgent* flush_agent() const { return flush_agent_.get(); }

  /// Restarted instances commit straight into their backing checkpoint
  /// image rather than cloning a new one.
  void set_checkpoint_blob(blob::BlobId blob, blob::VersionId last_version) {
    ckpt_blob_ = blob;
    last_version_ = last_version;
  }
  blob::BlobId checkpoint_blob() const { return ckpt_blob_; }
  /// Most recent snapshot of the checkpoint image (0 if none yet).
  blob::VersionId last_version() const { return last_version_; }
  blob::BlobId backing_blob() const { return backing_blob_; }
  blob::VersionId backing_version() const { return backing_version_; }

  std::uint64_t dirty_bytes() const { return dirty_.total_length(); }
  std::uint64_t locally_available_bytes() const {
    return available_.total_length();
  }
  /// Logical bytes materialized from any remote source (repository + peer
  /// copies + parity rebuilds). Zero holes and node-cache hits cost no
  /// transfer and are not counted here.
  std::uint64_t remote_bytes_fetched() const {
    return repo_logical_fetched_ + peer_bytes_fetched_ +
           parity_bytes_rebuilt_;
  }
  /// Wire bytes pulled from repository data providers (post-reduction
  /// stored size — what the repository actually shipped).
  std::uint64_t repo_bytes_fetched() const { return repo_wire_fetched_; }
  /// Decoded bytes copied from deployment peers instead of the repository.
  std::uint64_t peer_bytes_fetched() const { return peer_bytes_fetched_; }
  /// Decoded bytes reconstructed from peer parity groups (the redundancy
  /// tier) instead of fetched from the repository.
  std::uint64_t parity_bytes_rebuilt() const { return parity_bytes_rebuilt_; }
  /// Decoded bytes served by this node's shared chunk cache (no transfer).
  std::uint64_t cache_hit_bytes() const { return cache_hit_bytes_; }
  /// Logical bytes whose repository fetch crossed a zone boundary (served
  /// over the federation's WAN traffic class). Subset of
  /// repo-fetched logical bytes, not an extra source.
  std::uint64_t wan_bytes_fetched() const { return wan_bytes_fetched_; }
  /// Bytes of Zero holes materialized locally (no transfer, no payload).
  std::uint64_t zero_bytes_materialized() const { return zero_bytes_; }
  /// Raw (pre-reduction) payload of the last commit.
  std::uint64_t last_commit_payload() const { return last_commit_payload_; }
  /// Payload that actually shipped to the repository for the last commit
  /// (== last_commit_payload() when no reduction pipeline is attached).
  /// Async mode: reflects the most recent *completed* drain.
  std::uint64_t last_commit_shipped() const;

  /// Prefetch hint from the bus: fetch [offset, offset+len) in the
  /// background if missing.
  void hint(std::uint64_t offset, std::uint64_t len);

  /// Resolves the whole backing window to chunk identity tuples (restart
  /// scheduler input; warms the metadata cache as a side effect).
  sim::Task<std::vector<blob::BlobClient::ChunkRef>> resolve_backing_chunks();

  /// Kicks a background worker that materializes the given chunk-aligned
  /// ranges in order, bounded by prefetch_streams (the restart scheduler
  /// hands popularity-ordered ranges here).
  void start_scheduled_prefetch(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges);

  net::NodeId host() const { return host_; }
  /// The deployment's chunk exchange this device cooperates with (nullptr
  /// when adaptive prefetching is off).
  PrefetchBus* bus() const { return bus_; }

 private:
  friend class PrefetchBus;
  struct InflightGuard;

  std::uint64_t chunk_size() const;
  /// Materializes the chunk-aligned gaps of [begin, end) into the local
  /// cache, chunk by chunk: Zero holes locally, then the node's decoded
  /// cache, then a peer copy, then a parity-group rebuild (redundancy
  /// tier), then (last) a repository fetch. Announces on-demand chunks to
  /// the bus.
  sim::Task<> ensure_available(std::uint64_t begin, std::uint64_t end,
                               bool announce);
  /// One chunk of ensure_available (the [clo, chi) range); `loc` is the
  /// resolved leaf or nullptr for a never-written hole.
  sim::Task<> materialize_chunk(std::uint64_t clo, std::uint64_t chi,
                                const blob::ChunkLocation* loc,
                                bool announce);
  sim::Task<> prefetch_worker(std::uint64_t begin, std::uint64_t end);
  sim::Task<> scheduled_prefetch_body(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges);
  /// Records a spawned prefetcher. Finished ones are pruned lazily, once the
  /// list has doubled since the last prune, so a hint costs amortized O(1).
  void track_prefetcher(sim::ProcessPtr p);
  DecodedChunkCache& node_cache();

  blob::BlobStore* store_;
  net::NodeId host_;
  storage::Disk* disk_;
  std::uint64_t stream_;
  blob::BlobId backing_blob_;
  blob::VersionId backing_version_;
  Config cfg_;
  PrefetchBus* bus_;
  blob::CommitReducer* reducer_;  // deployment-scoped reduction pipeline
  blob::BlobClient client_;

  common::SparseFile cache_;      // local content (fetched + written)
  common::RangeSet available_;    // byte ranges present locally
  common::RangeSet dirty_;        // modified since last commit
  common::RangeSet inflight_;     // chunk fetches in progress (dedup)
  sim::Event fetch_done_;         // pulsed whenever a fetch completes
  blob::BlobId ckpt_blob_ = 0;
  blob::VersionId last_version_ = 0;
  std::uint64_t repo_wire_fetched_ = 0;
  std::uint64_t repo_logical_fetched_ = 0;
  std::uint64_t peer_bytes_fetched_ = 0;
  std::uint64_t parity_bytes_rebuilt_ = 0;
  std::uint64_t cache_hit_bytes_ = 0;
  std::uint64_t wan_bytes_fetched_ = 0;
  std::uint64_t zero_bytes_ = 0;
  std::uint64_t last_commit_payload_ = 0;
  std::uint64_t last_commit_shipped_ = 0;
  std::vector<sim::ProcessPtr> prefetchers_;  // read only by the destructor
  std::size_t prune_at_ = 64;
  std::unique_ptr<sim::Semaphore> prefetch_slots_;
  /// Shared per-node cache (owned by the Cloud) or, when none was supplied
  /// (standalone devices in tests), a private fallback.
  DecodedChunkCache* node_cache_;
  std::unique_ptr<DecodedChunkCache> own_cache_;
  // Declared after client_/cache_: the agent's drain loop references both
  // and must be torn down (killed) first.
  std::unique_ptr<flush::FlushAgent> flush_agent_;
};

/// PrefetchBus: the deployment-scoped content-addressed chunk exchange.
///
/// What used to broadcast byte-range hints now coordinates on chunk
/// identity (ChunkKey — content digest when known, ChunkId otherwise):
///
///  * holders_ records which nodes' DecodedChunkCaches hold which decoded
///    chunks, so an instance materializes a chunk a peer already has via an
///    intra-deployment fabric copy (peer_shape: latency/bandwidth distinct
///    from repository transfers) instead of a repository fetch;
///  * repository fetches are claimed per content key deployment-wide: only
///    one instance pulls a given chunk from the repository at a time,
///    everyone else waits and then takes the peer copy;
///  * on-demand fetches still broadcast prefetch hints (once per content
///    key per deployment, exploiting boot jitter), and schedule_restart_
///    prefetch() orders each instance's background prefetch by chunk
///    popularity — chunks shared by the most ranks first — with per-
///    instance rotation so concurrent repository fetches spread over
///    distinct popular chunks.
class PrefetchBus {
 public:
  struct Config {
    sim::Duration hint_latency = 300 * sim::kMicrosecond;
    /// Shaping of peer-to-peer chunk copies (intra-deployment traffic
    /// class; distinct from repository transfers which run unshaped).
    net::Fabric::Shape peer_shape{};
  };

  PrefetchBus(sim::Simulation& sim, const Config& cfg)
      : sim_(&sim),
        cfg_(cfg),
        mirrors_(std::make_shared<std::vector<MirrorDevice*>>()),
        repo_waiters_(sim) {}
  PrefetchBus(sim::Simulation& sim, sim::Duration hint_latency)
      : PrefetchBus(sim, Config{hint_latency, {}}) {}

  void attach(MirrorDevice* m) { mirrors_->push_back(m); }
  void detach(MirrorDevice* m);

  /// A demand fetch of `key` (living at [offset, offset+len) of the
  /// announcing instance's image) — peers prefetch the same range from
  /// their own backing, which resolves to the same content for shared
  /// chunks. Broadcast once per content key per deployment.
  void announce(MirrorDevice* self, const ChunkKey& key, std::uint64_t offset,
                std::uint64_t len);

  /// Registers `node`'s cache as holding the decoded chunk.
  void publish(const ChunkKey& key, net::NodeId node,
               DecodedChunkCache* cache);
  /// Drops every holder entry on `node` (fail-stop: its cache is gone).
  void drop_node(net::NodeId node);
  /// Drops the whole holder registry and the per-deployment announce
  /// dedup (cold restart: every node was reclaimed).
  void drop_all_holders() {
    holders_.clear();
    announced_.clear();
  }

  struct PeerHit {
    net::NodeId node;
    common::Buffer data;  // copied out so holder-side eviction cannot race
  };
  /// A peer (different node) whose cache holds the decoded chunk — the
  /// least-loaded one. Returns nullopt when no holder exists OR every
  /// holder is already serving kPeerFanout copies: an oversubscribed swarm
  /// falls through to another repository fetch (idle provider bandwidth)
  /// instead of funneling the whole deployment through one NIC. The caller
  /// must bracket the copy with begin/finish accounting (finish via RAII so
  /// a killed copier never pins a holder's slot).
  std::optional<PeerHit> find_holder(const ChunkKey& key, net::NodeId self);
  void finish_peer_copy(const ChunkKey& key, net::NodeId node);

  /// Concurrent peer copies one holder serves before the swarm grows new
  /// replicas through the repository instead.
  static constexpr int kPeerFanout = 4;

  /// Deployment-wide single-flight on repository fetches: true = caller
  /// fetches; false = someone else is already fetching this content.
  bool claim_repo_fetch(const ChunkKey& key) {
    return repo_inflight_.insert(key).second;
  }
  void release_repo_fetch(const ChunkKey& key) {
    repo_inflight_.erase(key);
    repo_waiters_.notify_all();
  }
  auto wait_repo_fetch() { return repo_waiters_.wait(); }

  /// Restart scheduler: resolves every attached instance's backing window
  /// to chunk tuples, ranks content by popularity (instances sharing it),
  /// and starts each instance's background prefetch over the most-shared
  /// chunks first, up to `per_instance_budget` logical bytes.
  sim::Task<> schedule_restart_prefetch(std::uint64_t per_instance_budget);

  const net::Fabric::Shape& peer_shape() const { return cfg_.peer_shape; }

  std::size_t attached() const { return mirrors_->size(); }
  /// Hint broadcasts (each content key counted once per deployment).
  std::uint64_t hints_sent() const { return hints_sent_; }
  std::uint64_t hinted_bytes() const { return hinted_bytes_; }
  /// Peer copies served (chunks that skipped the repository).
  std::uint64_t peer_copies() const { return peer_copies_; }

 private:
  struct Holder {
    net::NodeId node;
    DecodedChunkCache* cache;
    int active = 0;  // peer copies currently streaming from this holder
  };

  sim::Simulation* sim_;
  Config cfg_;
  /// Held behind a shared_ptr so scheduled hint timers can hold a weak
  /// reference: a timer firing after the bus (or a device) is gone checks
  /// liveness instead of dereferencing freed memory.
  std::shared_ptr<std::vector<MirrorDevice*>> mirrors_;
  std::unordered_map<ChunkKey, std::vector<Holder>, ChunkKeyHash> holders_;
  std::unordered_set<ChunkKey, ChunkKeyHash> announced_;
  std::unordered_set<ChunkKey, ChunkKeyHash> repo_inflight_;
  sim::WaitQueue repo_waiters_;
  std::uint64_t hints_sent_ = 0;
  std::uint64_t hinted_bytes_ = 0;
  std::uint64_t peer_copies_ = 0;
};

}  // namespace blobcr::core
