// BlobClient: per-node access library for the BlobSeer-style store.
//
// WRITE builds new chunks (load-balanced placement from the provider
// manager, window-limited parallel stores), then path-copies the metadata
// segment tree (shadowing: all untouched subtrees are shared with the
// previous version) and publishes a new version.
//
// READ descends the tree level-by-level with per-provider batched node
// fetches, then pulls chunks from replicas (rotating, with fail-over).
//
// Immutable tree nodes are cached per client, so repeated commits and warm
// reads cost few metadata round-trips.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "blob/store.h"
#include "blob/types.h"
#include "common/buffer.h"

namespace blobcr::reduce {
class Reducer;
}

namespace blobcr::blob {

/// Commit pipeline stage boundaries, in order. Staged is fired by the
/// asynchronous flush agent once a commit's payload is frozen locally; the
/// client fires the middle three as the commit moves reduce -> store ->
/// publish; ParityEncode is fired by the flush agent again after publish,
/// just before the drained chunks fold into the peer parity tier
/// (redundancy::Manager) — a kill there leaves a published-but-unprotected
/// version, never a torn one.
enum class CommitStage {
  Staged,
  Reducing,
  Putting,
  PrePublish,
  PostPublish,
  ParityEncode,
  /// Fired by the flush agent after ParityEncode, just before the drained
  /// chunks replicate asynchronously to sibling zones (federation::Fabric).
  /// A kill there leaves a published-but-unreplicated version.
  Replicate,
};

const char* commit_stage_name(CommitStage s);

/// Awaited at each stage boundary when installed. Crash-consistency tests
/// suspend inside the probe, so a fail-stop kill lands exactly on the
/// boundary under test.
using CommitProbe = std::function<sim::Task<>(CommitStage)>;

/// Knobs of write_extents_via; the defaults are a plain synchronous commit.
struct CommitOptions {
  /// The deployment's reduction pipeline; nullptr ships chunks unreduced.
  reduce::Reducer* reducer = nullptr;
  /// Non-zero: publish into this reserved version slot (asynchronous drains
  /// reserve at stage time so snapshot numbering reflects capture order).
  VersionId reserved_version = 0;
  /// Stage-boundary hook; must outlive the commit. nullptr = no probing.
  CommitProbe* probe = nullptr;
};

class BlobClient {
 public:
  BlobClient(BlobStore& store, net::NodeId node)
      : store_(&store), node_(node) {}

  net::NodeId node() const { return node_; }

  /// Tags this client's repository requests with a tenant identity: shared
  /// service queues dispatch (and account) per tenant, and the commit gate
  /// admits per tenant. Default-tenant clients need no registration.
  void set_tenant(net::TenantId tenant) { tenant_ = tenant; }
  net::TenantId tenant() const { return tenant_; }

  sim::Task<BlobId> create(std::uint64_t chunk_size = 0);
  sim::Task<BlobId> clone(BlobId src, VersionId v);
  sim::Task<BlobMeta> stat(BlobId blob);

  /// Named-blob registry on the version manager: well-known control-plane
  /// entry points (the checkpoint catalog) publish their blob id under a
  /// name so a fresh driver can discover them. lookup_name returns 0 for
  /// an unbound name.
  sim::Task<> bind_name(const std::string& name, BlobId id);
  sim::Task<BlobId> lookup_name(const std::string& name);

  /// Writes one extent as a new version. Offset must be chunk-aligned.
  sim::Task<VersionId> write(BlobId blob, std::uint64_t offset,
                             common::Buffer data);

  /// COMMIT primitive: all extents become ONE new version (one snapshot).
  /// Extents must be chunk-aligned and non-overlapping.
  sim::Task<VersionId> write_extents(BlobId blob, std::vector<Extent> extents);

  /// A chunk-aligned extent whose payload is produced on demand.
  struct ExtentSpec {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  using ExtentReader =
      std::function<sim::Task<common::Buffer>(std::uint64_t offset,
                                              std::uint64_t length)>;

  /// Streaming COMMIT: like write_extents, but each chunk's payload is
  /// pulled through `reader` inside the window-limited store pipeline, so
  /// producing the data (e.g. reading the mirroring module's local cache
  /// from disk) overlaps with shipping it to the providers. The caller owns
  /// `reader` and must keep it alive until this task completes.
  ///
  /// With `opts.reducer`, every chunk runs through the reduction pipeline
  /// first: all-zero chunks become metadata-only holes, content already in
  /// the repository (other ranks, previous versions, or earlier in this
  /// commit) is referenced instead of re-stored, and remaining payloads may
  /// be compressed. The published version's new_chunk_bytes then reflects
  /// what actually shipped. `opts` also takes a reserved (provisional)
  /// version slot and stage-boundary probes, as the asynchronous drain of
  /// flush::FlushAgent commits.
  sim::Task<VersionId> write_extents_via(BlobId blob,
                                         std::vector<ExtentSpec> extents,
                                         ExtentReader* reader,
                                         CommitOptions opts = {});

  /// Reads [offset, offset+len) of a version. Unwritten holes read as zeros.
  sim::Task<common::Buffer> read(BlobId blob, VersionId version,
                                 std::uint64_t offset, std::uint64_t len);

  /// Metadata-only COMMIT of verbatim leaves into `blob` (federation zone
  /// failover: a surviving zone adopts a dead zone's version by rebuilding
  /// the tree over the dead store's leaf tuples — locations kept verbatim,
  /// zone ids included, so fetches resolve through the federation's nearest-
  /// zone path). No chunk payloads move; only tree nodes are put and a
  /// version published. `leaves` maps chunk index -> location.
  sim::Task<VersionId> adopt_leaves(
      BlobId blob, std::uint64_t logical_size,
      const std::vector<std::pair<std::uint64_t, ChunkLocation>>& leaves);

  /// One resolved leaf of a version: chunk index plus the stored location
  /// (ChunkId, content digest, encoding, replicas). The restart data plane
  /// works on these identity tuples instead of opaque byte ranges.
  struct ChunkRef {
    std::uint64_t index = 0;  // chunk index within the blob
    ChunkLocation loc;
  };

  /// Resolves the chunk-aligned window covering [offset, offset+len) to its
  /// leaf tuples, warming the metadata cache along the way. Holes (never
  /// written, or beyond the logical size) are simply absent from the result
  /// — they read as zeros without any chunk behind them.
  sim::Task<std::vector<ChunkRef>> resolve_chunks(BlobId blob,
                                                  VersionId version,
                                                  std::uint64_t offset,
                                                  std::uint64_t len);

  /// Fetches one chunk's stored payload for a reader on `dst` from its
  /// replicas in `store`: the listed replicas in rotation from
  /// `loc.id % n`, then wherever the provider manager's locate() says the
  /// chunk lives now (a repair may have re-homed it). Throws BlobError when
  /// no live replica holds it. `loc` must not be a Zero hole.
  static sim::Task<common::Buffer> fetch_stored(BlobStore& store,
                                                const ChunkLocation& loc,
                                                net::NodeId dst,
                                                net::TenantId tenant);

  /// Maps a stored (possibly reduced) chunk payload back to logical bytes.
  static common::Buffer decode_stored(const ChunkLocation& loc,
                                      common::Buffer stored);

  /// Chunk size of `blob` when this client has already resolved it (the
  /// create/commit/read paths all cache it); 0 for an unseen blob.
  std::uint64_t known_chunk_size(BlobId blob) const {
    const auto it = chunk_size_cache_.find(blob);
    return it == chunk_size_cache_.end() ? 0 : it->second;
  }

 private:
  struct VersionKey {
    BlobId blob;
    VersionId version;
    bool operator==(const VersionKey&) const = default;
  };
  struct VersionKeyHash {
    std::size_t operator()(const VersionKey& k) const {
      return static_cast<std::size_t>(
          common::mix64(k.blob * 1000003ULL + k.version));
    }
  };
  struct VersionEntry {
    NodeRef root = 0;
    std::uint64_t size = 0;
    std::uint64_t chunk_size = 0;
  };

  /// Resolves (blob, version) to root/size/chunk_size, consulting the
  /// version manager once per unseen version. version==0 means latest (never
  /// cached).
  sim::Task<VersionEntry> resolve(BlobId blob, VersionId& version);

  /// Level-order descent over [lo_chunk, hi_chunk), fetching uncached nodes
  /// in per-provider batches. Collects leaves into `leaves` when non-null.
  sim::Task<> descend(NodeRef root, std::uint64_t capacity,
                      std::uint64_t lo_chunk, std::uint64_t hi_chunk,
                      std::vector<std::pair<std::uint64_t, ChunkLocation>>*
                          leaves);

  /// Path-copy rebuild. Pure (uses only the warmed cache); new nodes are
  /// appended to `out` and cached.
  NodeRef build(NodeRef old_ref, std::uint64_t lo, std::uint64_t hi,
                const std::vector<std::pair<std::uint64_t, ChunkLocation>>&
                    writes,
                std::vector<std::pair<NodeRef, TreeNode>>& out);

  std::uint64_t capacity_chunks() const {
    return 1ULL << store_->config().tree_depth;
  }

  BlobStore* store_;
  net::NodeId node_;
  net::TenantId tenant_ = net::kDefaultTenant;
  std::unordered_map<NodeRef, TreeNode> node_cache_;
  std::unordered_map<VersionKey, VersionEntry, VersionKeyHash> version_cache_;
  std::unordered_map<BlobId, std::uint64_t> chunk_size_cache_;
};

}  // namespace blobcr::blob
