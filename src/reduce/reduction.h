// Snapshot data-reduction subsystem: configuration and counters.
//
// BlobCR's incremental commits already ship only dirty chunks; this
// subsystem shrinks what a dirty chunk *costs*. Three stages run on the
// commit path, between the mirroring module's COMMIT ioctl and the
// BlobSeer-style store's chunk pipeline:
//
//  * zero suppression — an all-zero chunk becomes a metadata-only hole
//    (the store already reads holes as zeros, so nothing ships or stores);
//  * content-addressed dedup — a chunk whose content already lives in the
//    repository (written by another rank, by a previous snapshot version, or
//    earlier in the same commit) is recorded as a reference to the existing
//    chunk instead of being re-stored;
//  * compression — real payloads go through an actual RLE transform (honest
//    byte accounting: what ships is what was encoded); phantom payloads use
//    a fixed ratio model (kPhantomCompressionRatio) so large sweeps keep
//    their memory-free bookkeeping.
//
// Stats distinguish raw (pre-reduction), shipped (sent to providers, before
// replication) and the per-stage savings, so benches can plot Fig.4-style
// curves with reduction on/off.
#pragma once

#include <cstddef>
#include <cstdint>

namespace blobcr::reduce {

/// Stored-size ratio applied to pure-phantom payloads when compression is
/// on (models the app-data compressibility the simulation cannot see).
constexpr double kPhantomCompressionRatio = 0.6;

struct ReductionConfig {
  /// Master switch: when false the commit path is byte-for-byte the
  /// unreduced pipeline (no digesting, no index, no transforms).
  bool enabled = false;
  /// Suppress all-zero chunks into metadata-only holes.
  bool zero_suppression = true;
  /// Content-addressed dedup across ranks, versions and within a commit.
  /// Only fully-real payloads are deduped: a phantom payload's digest is
  /// length-derived, so deduping it would fabricate savings.
  bool dedup = true;
  /// Repository-scoped digest index: every deployment (job) checkpointing
  /// into the same Cloud dedups against every other's committed chunks —
  /// shared base images and shared input datasets store once across jobs.
  /// false falls back to an isolated per-deployment index (the pre-multi-
  /// tenant behavior; the multitenant ablation's baseline).
  bool shared_index = true;
  /// Compress chunk payloads (RLE for real payloads, ratio model for pure
  /// phantom payloads). Off by default: the paper's workloads are random
  /// data, where compression only adds cost.
  bool compression = false;
  /// Digest-index shards: the key space is hash-partitioned into this many
  /// independent slices, each with its own stats. Routing depends only on
  /// content identity, so cross-tenant dedup is unaffected by the shard
  /// count. Lookups are in-process and free; a per-shard service queue
  /// exists only where ChunkDigestIndex::attach_service is called directly.
  std::size_t index_shards = 8;
};

struct ReductionStats {
  std::uint64_t chunks_total = 0;   // chunks entering the pipeline
  std::uint64_t raw_bytes = 0;      // pre-reduction payload
  std::uint64_t shipped_bytes = 0;  // payload stored (pre-replication)
  std::uint64_t zero_chunks = 0;
  std::uint64_t zero_bytes = 0;        // raw bytes suppressed as holes
  std::uint64_t dedup_hits = 0;        // chunks resolved to existing content
  std::uint64_t dedup_bytes = 0;       // raw bytes saved by dedup
  std::uint64_t compressed_chunks = 0; // chunks stored in compressed form
  std::uint64_t compress_saved_bytes = 0;

  double dedup_hit_rate() const {
    return chunks_total == 0
               ? 0.0
               : static_cast<double>(dedup_hits) /
                     static_cast<double>(chunks_total);
  }
  /// shipped / raw (1.0 = no reduction).
  double shipped_ratio() const {
    return raw_bytes == 0
               ? 1.0
               : static_cast<double>(shipped_bytes) /
                     static_cast<double>(raw_bytes);
  }

  friend ReductionStats operator-(ReductionStats a, const ReductionStats& b) {
    a.chunks_total -= b.chunks_total;
    a.raw_bytes -= b.raw_bytes;
    a.shipped_bytes -= b.shipped_bytes;
    a.zero_chunks -= b.zero_chunks;
    a.zero_bytes -= b.zero_bytes;
    a.dedup_hits -= b.dedup_hits;
    a.dedup_bytes -= b.dedup_bytes;
    a.compressed_chunks -= b.compressed_chunks;
    a.compress_saved_bytes -= b.compress_saved_bytes;
    return a;
  }
};

}  // namespace blobcr::reduce
