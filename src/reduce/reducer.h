// Reducer: the concrete chunk-reduction pipeline (zero suppression ->
// content-addressed dedup -> compression) that BlobClient consults on the
// commit path. One Reducer per deployment, shared by all of its mirroring
// modules — the same scoping as the PrefetchBus — so dedup works across
// ranks as well as across successive snapshot versions.
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

#include "blob/reducer.h"
#include "blob/store.h"
#include "reduce/digest_index.h"
#include "reduce/reduction.h"

namespace blobcr::reduce {

class Reducer final : public blob::CommitReducer {
 public:
  /// With a `shared_index` (the repository-scoped index owned by the Cloud)
  /// this reducer records into, pins in and dedups against it — cross-job
  /// dedup — and the index's owner registers it with the stores' GC;
  /// without one, the reducer owns an isolated per-deployment index and
  /// registers that with `store` itself. `tenant` tags the reducer's index
  /// lookups for the shard queues' fair dispatch (the deployment's
  /// repository tenant).
  Reducer(blob::BlobStore& store, const ReductionConfig& cfg,
          ChunkDigestIndex* shared_index = nullptr,
          net::TenantId tenant = net::kDefaultTenant);
  ~Reducer() override;

  Reducer(const Reducer&) = delete;
  Reducer& operator=(const Reducer&) = delete;

  // --- CommitReducer ---
  sim::Task<blob::ReducedChunk> reduce(net::NodeId node, std::uint64_t offset,
                                       common::Buffer payload) override;
  void committed(std::uint64_t digest, const blob::ChunkLocation& loc) override;
  void account_stored(std::uint32_t raw_size,
                      std::uint32_t stored_size) override;
  void account_aliased(std::uint32_t raw_size) override;
  void release_refs(const std::vector<blob::ChunkId>& ids) override;
  void forget_indexed(const std::vector<blob::ChunkId>& ids) override;

  /// Opens a fresh stats epoch: epoch_stats() then covers only what was
  /// reduced since this call. Callers that want per-checkpoint stats open
  /// one before each checkpoint.
  void begin_epoch();

  const ReductionConfig& config() const { return cfg_; }
  const ReductionStats& stats() const { return stats_; }
  /// Stats accumulated since the current epoch opened.
  ReductionStats epoch_stats() const { return stats_ - epoch_base_; }
  ChunkDigestIndex& index() { return *index_; }
  /// True when this reducer dedups against the repository-scoped index.
  bool shares_index() const { return index_ != &own_index_; }

 private:
  blob::BlobStore* store_;
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
