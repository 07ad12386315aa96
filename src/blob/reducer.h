// CommitReducer: the store-side seam for the snapshot data-reduction
// subsystem (src/reduce/). BlobClient::write_extents_via consults it per
// chunk before placement: a chunk can be suppressed (all zeros), resolved to
// an already-stored chunk (content-addressed dedup) or transformed
// (compression) before it ships. The concrete pipeline lives in
// reduce::Reducer; keeping only this interface in the blob layer avoids a
// blob -> reduce dependency cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "blob/types.h"
#include "common/buffer.h"
#include "sim/task.h"

namespace blobcr::blob {

/// The reduction verdict for one chunk-sized commit payload.
struct ReducedChunk {
  enum class Kind {
    Store,  // ship `payload` (possibly transformed) as a new chunk
    Ref,    // reference the existing chunk at `ref`; nothing ships
    Zero,   // metadata-only hole; nothing ships or stores
  };
  Kind kind = Kind::Store;
  common::Buffer payload;  // Store: the bytes to place and ship
  ChunkEncoding encoding = ChunkEncoding::Raw;  // Store: payload encoding
  ChunkLocation ref;       // Ref: existing location (copied into the leaf)
  std::uint64_t digest = 0;      // content digest of the raw payload
  bool index_on_commit = false;  // record digest -> location once stored
};

class CommitReducer {
 public:
  virtual ~CommitReducer() = default;

  /// Reduces one raw chunk payload (called inside the commit window, so
  /// simulated digest/compression cost overlaps across chunks).
  virtual sim::Task<ReducedChunk> reduce(net::NodeId node,
                                         std::uint64_t offset,
                                         common::Buffer payload) = 0;

  /// A Store chunk reached all replicas at `loc`; safe to dedup against.
  virtual void committed(std::uint64_t digest, const ChunkLocation& loc) = 0;

  /// Byte accounting from the client: a genuinely stored chunk
  /// (stored_size == what shipped) or an intra-commit dedup alias
  /// (stored_size == 0, raw bytes saved).
  virtual void account_stored(std::uint32_t raw_size,
                              std::uint32_t stored_size) = 0;
  virtual void account_aliased(std::uint32_t raw_size) = 0;

  /// A dedup Ref pins its chunk inside reduce(), in the index that handed
  /// it out (the reference is invisible to the GC until the version
  /// publishes); the committing client releases all of a commit's pins once
  /// the commit has published or failed.
  virtual void release_refs(const std::vector<ChunkId>& ids) = 0;

  /// A failed commit withdraws the chunks it had announced via committed():
  /// its version never published, so no tree references them, and leaving
  /// them indexed would hand out dedup Refs to orphans the GC can never
  /// reclaim.
  virtual void forget_indexed(const std::vector<ChunkId>& ids) = 0;
};

}  // namespace blobcr::blob
