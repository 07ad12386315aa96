#include "reduce/reducer.h"

#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "reduce/rle.h"

namespace blobcr::reduce {

Reducer::Reducer(std::vector<blob::BlobStore*> stores,
                 const ReductionConfig& cfg, ChunkDigestIndex* shared_index,
                 net::TenantId tenant)
    : stores_(std::move(stores)),
      cfg_(cfg),
      tenant_(tenant),
      own_index_(cfg.index_shards),
      index_(shared_index != nullptr ? shared_index : &own_index_) {
  assert(!stores_.empty());
  if (shares_index()) return;
  for (blob::BlobStore* s : stores_) s->add_gc_observer(&own_index_);
}

Reducer::~Reducer() {
  if (shares_index()) return;
  for (blob::BlobStore* s : stores_) s->remove_gc_observer(&own_index_);
}

sim::Task<ReducedChunk> Reducer::reduce(std::uint32_t zone,
                                        common::Buffer payload) {
  const std::uint32_t raw_size = static_cast<std::uint32_t>(payload.size());
  ++stats_.chunks_total;
  stats_.raw_bytes += raw_size;

  ReducedChunk out;

  // 1. Zero suppression: an all-zero chunk becomes a metadata-only hole.
  if (cfg_.zero_suppression && payload.all_zero()) {
    out.kind = ReducedChunk::Kind::Zero;
    ++stats_.zero_chunks;
    stats_.zero_bytes += raw_size;
    co_return out;
  }

  // 2. Content-addressed dedup (fully-real payloads only: phantom digests
  //    are length-derived, so matching them would fabricate savings). The
  //    digest is computed only here, but it outlives dedup: it is stamped
  //    into the leaf (ChunkLocation::digest) and keys core::ChunkKey for the
  //    node cache and the peer exchange, and federation's fallback lookup.
  const bool dedupable = cfg_.dedup && payload.fully_real();
  if (dedupable) {
    out.digest = payload.digest();
    // With shard queues attached the lookup pays its simulated cost at the
    // owning shard (per-tenant fair order); otherwise it is an in-process
    // peek, exactly the pre-sharding timing model.
    // Proximity-ordered serving: of the same-content copies on record,
    // prefer one in the committing store's zone so dedup Refs (and the
    // restart fetches they later imply) stay zone-local when possible.
    const blob::ChunkLocation* loc =
        index_->service_attached()
            ? co_await index_->lookup_queued(tenant_, out.digest, raw_size,
                                             zone)
            : index_->lookup(out.digest, raw_size, zone);
    // Dedup Refs stay zone-local: a Ref to a foreign zone's chunk would be
    // invisible to that zone's GC mark (liveness is computed per store), so
    // the owner could reclaim content this zone still needs. Cross-zone
    // sharing is the federation replicator's job, not dedup's.
    if (loc != nullptr && loc->zone != zone) loc = nullptr;
    if (loc != nullptr) {
      out.kind = ReducedChunk::Kind::Ref;
      out.ref = *loc;
      // Pin until the referencing commit publishes (or fails): the GC
      // cannot see this reference in any tree yet.
      index_->pin(out.ref.id);
      ++stats_.dedup_hits;
      stats_.dedup_bytes += raw_size;
      co_return out;
    }
  }
  out.index_on_commit = dedupable;

  // 3. Compression: real RLE transform, or the ratio model for pure-phantom
  //    payloads. Mixed chunks ship raw so real content survives bit-exactly.
  out.kind = ReducedChunk::Kind::Store;
  if (cfg_.compression && payload.fully_real()) {
    std::vector<std::byte> encoded = rle_encode(payload.bytes());
    if (encoded.size() < raw_size) {
      ++stats_.compressed_chunks;
      stats_.compress_saved_bytes += raw_size - encoded.size();
      out.payload = common::Buffer::real(std::move(encoded));
      out.encoding = blob::ChunkEncoding::Rle;
      co_return out;
    }
  } else if (cfg_.compression && payload.fully_phantom()) {
    const auto stored = static_cast<std::size_t>(
        std::max(1.0, std::ceil(raw_size * kPhantomCompressionRatio)));
    if (stored < raw_size) {
      ++stats_.compressed_chunks;
      stats_.compress_saved_bytes += raw_size - stored;
      out.payload = common::Buffer::phantom(stored);
      out.encoding = blob::ChunkEncoding::PhantomRatio;
      co_return out;
    }
  }
  out.payload = std::move(payload);
  out.encoding = blob::ChunkEncoding::Raw;
  co_return out;
}

}  // namespace blobcr::reduce
