// Reducer: the chunk-reduction pipeline (zero suppression -> content-
// addressed dedup -> compression) that BlobClient::write_extents_via runs
// each chunk through before placement. One Reducer per deployment, shared
// by all of its mirroring modules in every zone — the same scoping as the
// PrefetchBus — so dedup works across ranks as well as across successive
// snapshot versions. The committing client names its store's zone on every
// call, so one reducer serves every zone store of a federated repository.
//
// Honesty rules (the simulator mixes real and phantom payloads):
//  * zero suppression and dedup apply only to fully-real payloads — phantom
//    content is unknowable, and a phantom digest is length-derived, so
//    "deduping" it would fabricate savings;
//  * compression really transforms real payloads (RLE, kept only when
//    strictly smaller) and applies a configured ratio model to pure-phantom
//    payloads; mixed real/phantom chunks ship raw so real content (file
//    system metadata, dump headers) always survives bit-exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "blob/store.h"
#include "blob/types.h"
#include "common/buffer.h"
#include "reduce/digest_index.h"
#include "reduce/reduction.h"
#include "sim/task.h"

namespace blobcr::reduce {

/// The reduction verdict for one chunk-sized commit payload.
struct ReducedChunk {
  enum class Kind {
    Store,  // ship `payload` (possibly transformed) as a new chunk
    Ref,    // reference the existing chunk at `ref`; nothing ships
    Zero,   // metadata-only hole; nothing ships or stores
  };
  Kind kind = Kind::Store;
  common::Buffer payload;  // Store: the bytes to place and ship
  blob::ChunkEncoding encoding = blob::ChunkEncoding::Raw;  // Store
  blob::ChunkLocation ref;  // Ref: existing location (copied into the leaf)
  std::uint64_t digest = 0;      // content digest of the raw payload
  bool index_on_commit = false;  // record digest -> location once stored
};

class Reducer {
 public:
  /// With a `shared_index` (the repository-scoped index owned by the Cloud)
  /// this reducer looks up and pins in it — cross-job dedup — and the
  /// index's owner registers it with the stores' GC; without one, the
  /// reducer owns an isolated per-deployment index and registers that with
  /// every store in `stores` itself. `tenant` tags the reducer's index
  /// lookups for the shard queues' fair dispatch (the deployment's
  /// repository tenant).
  Reducer(std::vector<blob::BlobStore*> stores, const ReductionConfig& cfg,
          ChunkDigestIndex* shared_index = nullptr,
          net::TenantId tenant = net::kDefaultTenant);
  ~Reducer();

  Reducer(const Reducer&) = delete;
  Reducer& operator=(const Reducer&) = delete;

  /// Reduces one raw chunk payload committed into the `zone` store (called
  /// inside the commit window, so simulated digest/compression cost
  /// overlaps across chunks). A dedup Ref is pinned in index(); the
  /// committing client releases the pin once its commit published or
  /// failed, and records every stored dedupable chunk there itself.
  sim::Task<ReducedChunk> reduce(std::uint32_t zone, common::Buffer payload);

  /// Byte accounting from the client: a genuinely stored chunk (what
  /// shipped) or an intra-commit dedup alias (raw bytes saved).
  void account_stored(std::uint32_t stored_size) {
    stats_.shipped_bytes += stored_size;
  }
  void account_aliased(std::uint32_t raw_size) {
    ++stats_.dedup_hits;
    stats_.dedup_bytes += raw_size;
  }

  /// Opens a fresh stats epoch: epoch_stats() then covers only what was
  /// reduced since this call. Callers that want per-checkpoint stats open
  /// one before each checkpoint.
  void begin_epoch() { epoch_base_ = stats_; }

  const ReductionConfig& config() const { return cfg_; }
  const ReductionStats& stats() const { return stats_; }
  /// Stats accumulated since the current epoch opened.
  ReductionStats epoch_stats() const { return stats_ - epoch_base_; }
  ChunkDigestIndex& index() { return *index_; }
  /// True when this reducer dedups against the repository-scoped index.
  bool shares_index() const { return index_ != &own_index_; }

 private:
  std::vector<blob::BlobStore*> stores_;
  ReductionConfig cfg_;
  net::TenantId tenant_;
  ChunkDigestIndex own_index_;
  /// The index this pipeline dedups against: the Cloud's repository-scoped
  /// index (multi-tenant) or own_index_ (isolated).
  ChunkDigestIndex* index_;
  ReductionStats stats_;
  ReductionStats epoch_base_;
};

}  // namespace blobcr::reduce
