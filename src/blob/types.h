// Core identifiers and metadata records for the BlobSeer-style store.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/buffer.h"
#include "net/fabric.h"
#include "sim/time.h"

namespace blobcr::blob {

using BlobId = std::uint64_t;     // 0 = invalid
using VersionId = std::uint32_t;  // version number within a blob, from 1
using ChunkId = std::uint64_t;    // globally unique, 0 = invalid
using NodeRef = std::uint64_t;    // metadata tree node reference, 0 = hole

class BlobError : public std::runtime_error {
 public:
  explicit BlobError(const std::string& what) : std::runtime_error(what) {}
};

/// A commit was refused at admission because the tenant's capacity ceiling
/// (resident bytes or catalog records) would be exceeded. Typed so drivers
/// can distinguish policy refusal from data-path failure.
class QuotaExceededError : public BlobError {
 public:
  explicit QuotaExceededError(const std::string& what) : BlobError(what) {}
};

/// How a stored chunk payload maps back to logical bytes (set by the
/// reduction pipeline; plain commits always store Raw).
enum class ChunkEncoding : std::uint8_t {
  Raw = 0,       // stored bytes == logical bytes
  Zero = 1,      // metadata-only hole: no stored payload, reads as zeros
  Rle = 2,       // run-length encoded real payload
  PhantomRatio = 3,  // phantom payload stored at a modeled compressed size
};

/// Where a chunk's replicas live.
struct ChunkLocation {
  ChunkId id = 0;          // 0 only for Zero-encoded (payload-free) leaves
  std::uint32_t size = 0;  // stored payload size (post-reduction)
  std::vector<net::NodeId> replicas;
  ChunkEncoding encoding = ChunkEncoding::Raw;
  std::uint32_t logical_size = 0;  // 0 => same as `size` (Raw)
  /// Raw-content digest, carried from the reduction pipeline into the leaf.
  /// Non-zero only for fully-real dedupable chunks; 0 = content unknown
  /// (plain commits, phantom payloads). The restart data plane keys its
  /// decoded-chunk caches and peer exchange on this when present, so two
  /// distinct ChunkIds holding identical content share one cached copy.
  std::uint64_t digest = 0;
  /// Availability zone of the BlobStore that owns this chunk (federation).
  /// 0 in a single-zone deployment; the restart plane uses it to resolve
  /// fetches to the nearest zone holding the content.
  std::uint32_t zone = 0;

  std::uint32_t logical() const { return logical_size != 0 ? logical_size : size; }
  /// A payload-free leaf: it reads as zeros, with no chunk to fetch.
  bool hole() const { return id == 0 || encoding == ChunkEncoding::Zero; }
};

/// One node of the persistent (path-copied) metadata segment tree over the
/// chunk-index space. Inner nodes reference child subtrees; unmodified
/// subtrees are shared between versions (this is BlobSeer's *shadowing*).
struct TreeNode {
  bool leaf = false;
  NodeRef left = 0;   // inner only
  NodeRef right = 0;  // inner only
  ChunkLocation chunk;  // leaf only

  static TreeNode inner(NodeRef l, NodeRef r) {
    TreeNode n;
    n.left = l;
    n.right = r;
    return n;
  }
  static TreeNode make_leaf(ChunkLocation loc) {
    TreeNode n;
    n.leaf = true;
    n.chunk = std::move(loc);
    return n;
  }
};

/// A published snapshot of a blob.
struct VersionInfo {
  VersionId id = 0;
  NodeRef root = 0;
  std::uint64_t size = 0;            // logical blob size in bytes
  std::uint64_t new_chunk_bytes = 0; // chunk payload added by this version
  std::uint64_t new_meta_bytes = 0;  // metadata added by this version
  sim::Time created = 0;
  /// Reserved by an asynchronous commit whose drain has not published yet.
  /// Invisible to readers; a drain that dies leaves the slot pending
  /// forever (a tombstone), never a torn snapshot.
  bool pending = false;
};

struct BlobMeta {
  BlobId id = 0;
  std::uint64_t chunk_size = 0;
  BlobId cloned_from = 0;       // 0 if created fresh
  VersionId cloned_version = 0;
  std::vector<VersionInfo> versions;  // versions[i].id == i+1

  const VersionInfo& version(VersionId v) const {
    if (v == 0 || v > versions.size())
      throw BlobError("unknown version " + std::to_string(v));
    return versions[v - 1];
  }
  /// Latest *published* version (pending reservations are skipped — they
  /// are not yet readable snapshots).
  VersionId latest() const {
    for (std::size_t i = versions.size(); i > 0; --i) {
      if (!versions[i - 1].pending) return static_cast<VersionId>(i);
    }
    return 0;
  }
};

/// A chunk-aligned write extent used by the COMMIT primitive.
struct Extent {
  std::uint64_t offset = 0;
  common::Buffer data;
};

/// A party that holds chunk state outside a store's trees and must follow
/// that store's garbage collection (BlobStore::add_gc_observer): the digest
/// indexes, the parity tier and the federation's cross-zone copies. Every
/// hook does nothing by default. A store holds its observers by address, so
/// an observer is neither copied nor moved.
class GcObserver {
 public:
  GcObserver() = default;
  GcObserver(const GcObserver&) = delete;
  GcObserver& operator=(const GcObserver&) = delete;
  virtual ~GcObserver() = default;
  /// The sweep set, before the first of them is erased: drop every
  /// reference to these chunks.
  virtual void forget_chunks(const std::vector<ChunkId>& ids) { (void)ids; }
  /// A GC epoch opened (true) or closed (false).
  virtual void gc_epoch(bool open) { (void)open; }
  /// Adds every chunk this party needs kept alive to `out` (called when an
  /// epoch opens and again at finalize).
  virtual void collect_pins(std::unordered_set<ChunkId>& out) const {
    (void)out;
  }
};

}  // namespace blobcr::blob
