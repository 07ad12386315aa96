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

/// Restart bytes by the ladder level that served them: one ledger per
/// mirroring module, summed by Deployment::source_bytes() and carried by the
/// app and FT results.
struct SourceBytes {
  /// Zero holes materialized locally (no transfer, no payload).
  std::uint64_t zero = 0;
  /// Decoded bytes served by the node's shared chunk cache (no transfer).
  std::uint64_t cache = 0;
  /// Decoded bytes copied from a deployment peer's cache, or from a node
  /// cache registered with the parity tier (resident copies).
  std::uint64_t peer = 0;
  /// Decoded bytes reconstructed from peer parity groups.
  std::uint64_t parity = 0;
  /// Wire bytes pulled from repository data providers (post-reduction
  /// stored size — what the repository actually shipped).
  std::uint64_t repo = 0;
  /// The same repository fetches in decoded (logical) bytes.
  std::uint64_t repo_logical = 0;
  /// Logical bytes whose repository fetch crossed a zone boundary (served
  /// over the federation's WAN traffic class). Subset of repo_logical, not
  /// an extra source.
  std::uint64_t wan = 0;

  /// Logical bytes materialized from any remote source (repository + peer
  /// copies + parity rebuilds).
  std::uint64_t remote() const { return repo_logical + peer + parity; }
  SourceBytes& operator+=(const SourceBytes& o) {
    zero += o.zero;
    cache += o.cache;
    peer += o.peer;
    parity += o.parity;
    repo += o.repo;
    repo_logical += o.repo_logical;
    wan += o.wan;
    return *this;
  }
  bool operator==(const SourceBytes&) const = default;
};

class MirrorDevice : public img::BlockDevice {
 public:
  struct Config {
    std::uint64_t capacity = 0;
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
  };

  /// `repo` is the checkpoint repository: the device commits to the zone
  /// store owning `backing_blob` and fetches every chunk through
  /// federation::Fabric::fetch_decoded. `node_cache` is the host's decoded-
  /// chunk cache (Cloud::chunk_cache); it must outlive the device and any
  /// bus or parity tier that indexes it.
  MirrorDevice(federation::Fabric& repo, net::NodeId host,
               storage::Disk& local_disk, std::uint64_t disk_stream,
               blob::BlobId backing_blob, blob::VersionId backing_version,
               const Config& cfg, DecodedChunkCache& node_cache,
               PrefetchBus* bus = nullptr,
               reduce::Reducer* reducer = nullptr);
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

  std::uint64_t dirty_bytes() const { return dirty_.total_length(); }
  std::uint64_t locally_available_bytes() const {
    return available_.total_length();
  }
  /// Bytes this device materialized, by the ladder level that served them.
  const SourceBytes& source_bytes() const { return ledger_; }
  // Per-level reads of source_bytes().
  std::uint64_t zero_bytes_materialized() const { return ledger_.zero; }
  std::uint64_t cache_hit_bytes() const { return ledger_.cache; }
  std::uint64_t peer_bytes_fetched() const { return ledger_.peer; }
  std::uint64_t parity_bytes_rebuilt() const { return ledger_.parity; }
  std::uint64_t repo_bytes_fetched() const { return ledger_.repo; }
  std::uint64_t wan_bytes_fetched() const { return ledger_.wan; }
  std::uint64_t remote_bytes_fetched() const { return ledger_.remote(); }
  /// Raw (pre-reduction) payload of the last commit.
  std::uint64_t last_commit_payload() const { return last_commit_payload_; }

  /// Prefetch hint from the bus: fetch [offset, offset+len) in the
  /// background if missing.
  void hint(std::uint64_t offset, std::uint64_t len);

  /// Resolves the whole backing window to chunk identity tuples (restart
  /// scheduler input; warms the metadata cache as a side effect).
  sim::Task<std::vector<blob::BlobClient::ChunkRef>> resolve_backing_chunks();

  /// Kicks a background worker that materializes the given chunk-aligned
  /// ranges in order, a few chunks in flight at a time (the restart
  /// scheduler hands popularity-ordered ranges here).
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
  /// cache, chunk by chunk (materialize_chunk). Announces on-demand chunks
  /// to the bus.
  sim::Task<> ensure_available(std::uint64_t begin, std::uint64_t end,
                               bool announce);
  /// One chunk of ensure_available (the [clo, chi) range); `loc` is the
  /// resolved leaf or nullptr for a never-written hole. Walks the restart
  /// ladder: Zero hole (local), the node's decoded cache, a peer copy, the
  /// parity tier (resident copy, then group rebuild), and last the
  /// repository through the fabric.
  sim::Task<> materialize_chunk(std::uint64_t clo, std::uint64_t chi,
                                const blob::ChunkLocation* loc,
                                bool announce);
  sim::Task<> prefetch_worker(std::uint64_t begin, std::uint64_t end);
  sim::Task<> scheduled_prefetch_body(
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges);
  /// Records a spawned prefetcher. Finished ones are pruned lazily, once the
  /// list has doubled since the last prune, so a hint costs amortized O(1).
  void track_prefetcher(sim::ProcessPtr p);

  federation::Fabric* repo_;
  blob::BlobStore* store_;  // the zone store owning backing_blob_
  net::NodeId host_;
  storage::Disk* disk_;
  std::uint64_t stream_;
  blob::BlobId backing_blob_;
  blob::VersionId backing_version_;
  Config cfg_;
  PrefetchBus* bus_;
  reduce::Reducer* reducer_;  // deployment-scoped reduction pipeline
  blob::BlobClient client_;

  common::SparseFile cache_;      // local content (fetched + written)
  common::RangeSet available_;    // byte ranges present locally
  common::RangeSet dirty_;        // modified since last commit
  common::RangeSet inflight_;     // chunk fetches in progress (dedup)
  sim::Event fetch_done_;         // pulsed whenever a fetch completes
  blob::BlobId ckpt_blob_ = 0;
  blob::VersionId last_version_ = 0;
  SourceBytes ledger_;
  std::uint64_t last_commit_payload_ = 0;
  std::vector<sim::ProcessPtr> prefetchers_;  // read only by the destructor
  std::size_t prune_at_ = 64;
  std::unique_ptr<sim::Semaphore> prefetch_slots_;
  DecodedChunkCache* node_cache_;  // the host's shared decoded-chunk cache
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
  /// `peer_shape`: shaping of peer-to-peer chunk copies (intra-deployment
  /// traffic class; distinct from repository transfers which run unshaped).
  explicit PrefetchBus(sim::Simulation& sim,
                       net::Fabric::Shape peer_shape = {})
      : sim_(&sim),
        peer_shape_(peer_shape),
        mirrors_(std::make_shared<std::vector<MirrorDevice*>>()),
        repo_waiters_(sim) {}

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
  /// Copies the decoded chunk to `dst` over `net` (peer traffic class) from
  /// the least-loaded peer (different node) whose cache holds it; returns
  /// the payload and that holder. nullopt when no holder exists OR every
  /// holder is already serving kPeerFanout copies: an oversubscribed swarm
  /// falls through to another repository fetch (idle provider bandwidth)
  /// instead of funneling the whole deployment through one NIC. The
  /// holder's fan-out slot frees when the copy ends, also when the copier
  /// is killed mid-transfer.
  sim::Task<std::optional<PeerHit>> copy_from_peer(const ChunkKey& key,
                                                   net::NodeId dst,
                                                   net::Fabric& net);

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

  const net::Fabric::Shape& peer_shape() const { return peer_shape_; }

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

  /// The least-loaded holder of `key` off node `self`, its fan-out slot
  /// taken; nullopt when none has a free slot. Evicted holders deregister.
  std::optional<PeerHit> find_holder(const ChunkKey& key, net::NodeId self);
  /// Frees the holder's fan-out slot and wakes repository waiters.
  void finish_peer_copy(const ChunkKey& key, net::NodeId node);

  sim::Simulation* sim_;
  net::Fabric::Shape peer_shape_;
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
