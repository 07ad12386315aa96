// Tests for the sharded metadata plane: content-hash routing in the digest
// index (cross-tenant dedup without cross-shard traffic), withdrawal
// confinement on failed commits, the epoch-based concurrent GC against a
// commit parked mid-flight holding dedup pins, GC epochs against a reference
// collector (same sweep, each tree node walked once, overlapping and killed
// epochs), the per-shard lookup queues (serialization, tenant order,
// kill-safety), and the blob/name-hash sharded version manager across shard
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/store.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "federation/federation.h"
#include "reduce/digest_index.h"
#include "reduce/reducer.h"
#include "reduce/reduction.h"
#include "sim/sim.h"

namespace blobcr::reduce {
namespace {

using blob::BlobClient;
using blob::BlobId;
using blob::BlobStore;
using blob::VersionId;
using common::Buffer;
using sim::Simulation;
using sim::Task;

constexpr std::uint64_t kChunk = 1024;

/// A small in-memory cluster hosting one BlobStore (mirrors reduce_test),
/// with a configurable version-manager shard count. A store of zone z > 0
/// issues blob, chunk and node ids from that zone's range, as core::Cloud
/// seeds them.
struct TestCluster {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<BlobStore> store;
  net::NodeId client_node = 0;
  blob::ChunkId first_chunk = 1;

  explicit TestCluster(std::size_t n_data = 4, std::size_t version_shards = 1,
                       std::uint32_t zone = 0) {
    const std::size_t n_meta = 2;
    const std::size_t total = 2 + n_meta + n_data + 1;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);

    BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    for (std::size_t i = 0; i < n_meta; ++i) {
      cfg.metadata_nodes.push_back(static_cast<net::NodeId>(2 + i));
    }
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 1e9;
    dcfg.position_cost = sim::kMillisecond;
    for (std::size_t i = 0; i < n_data; ++i) {
      const net::NodeId node = static_cast<net::NodeId>(2 + n_meta + i);
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
      cfg.data_providers.push_back({node, disks.back().get(), 1});
    }
    cfg.default_chunk_size = kChunk;
    cfg.tree_depth = 10;
    cfg.replication = 1;
    cfg.version_shards = version_shards;
    cfg.zone = zone;
    store = std::make_unique<BlobStore>(sim, *fabric, cfg);
    client_node = static_cast<net::NodeId>(total - 1);
    if (zone != 0) {
      store->version_manager().seed_blob_ids(
          1 + (BlobId{zone} << federation::Fabric::kBlobZoneShift));
      first_chunk = 1 + (blob::ChunkId{zone}
                         << federation::Fabric::kChunkZoneShift);
      store->chunk_id_counter() = first_chunk;
      store->seed_node_refs(1 + (blob::NodeRef{zone}
                                 << federation::Fabric::kChunkZoneShift));
    }
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

ReductionConfig all_on(std::size_t index_shards = 16) {
  ReductionConfig cfg;
  cfg.enabled = true;
  cfg.zero_suppression = true;
  cfg.dedup = true;
  cfg.compression = false;
  cfg.index_shards = index_shards;
  return cfg;
}

/// Commits `data` at `offset` through the reduction pipeline.
Task<VersionId> write_reduced(BlobClient& client, Reducer& red, BlobId blob,
                              std::uint64_t offset, const Buffer& data) {
  std::vector<BlobClient::ExtentSpec> specs;
  specs.push_back({offset, data.size()});
  BlobClient::ExtentReader reader =
      [&data, offset](std::uint64_t off,
                      std::uint64_t len) -> Task<Buffer> {
    co_return data.slice(off - offset, len);
  };
  co_return co_await client.write_extents_via(blob, std::move(specs),
                                              &reader, &red);
}

std::vector<ChunkDigestIndex::ShardStats> snapshot(
    const ChunkDigestIndex& idx) {
  std::vector<ChunkDigestIndex::ShardStats> out;
  for (std::size_t s = 0; s < idx.shard_count(); ++s) {
    out.push_back(idx.shard_stats(s));
  }
  return out;
}

// --- content-hash routing ----------------------------------------------------

// Shard routing is a pure function of (digest, raw_size): the same content
// committed by two different tenants through two different reducers resolves
// in exactly the shards that recorded it — a cross-tenant dedup hit needs no
// cross-shard traffic, and untouched shards stay byte-identical.
TEST(ShardTest, SameContentLandsInOneShardRegardlessOfTenant) {
  TestCluster tc;
  ChunkDigestIndex idx(16);
  const net::TenantId ta = tc.store->tenants().register_tenant("job-a");
  const net::TenantId tb = tc.store->tenants().register_tenant("job-b");
  Reducer red_a(*tc.store, all_on(), &idx, ta);
  Reducer red_b(*tc.store, all_on(), &idx, tb);
  const Buffer content = Buffer::pattern(4 * kChunk, 99);

  std::vector<ChunkDigestIndex::ShardStats> after_a;
  std::uint64_t stored_after_a = 0;
  std::uint64_t stored_after_b = 0;
  bool b_ok = false;
  tc.run([](TestCluster* tc, ChunkDigestIndex* idx, Reducer* ra, Reducer* rb,
            net::TenantId ta, net::TenantId tb, const Buffer* content,
            std::vector<ChunkDigestIndex::ShardStats>* after_a,
            std::uint64_t* stored_after_a, std::uint64_t* stored_after_b,
            bool* b_ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    a.set_tenant(ta);
    BlobClient b(*tc->store, tc->client_node);
    b.set_tenant(tb);
    const BlobId blob_a = co_await a.create();
    const BlobId blob_b = co_await b.create();

    co_await write_reduced(a, *ra, blob_a, 0, *content);
    *after_a = snapshot(*idx);
    *stored_after_a = tc->store->total_stored_bytes();

    const VersionId vb = co_await write_reduced(b, *rb, blob_b, 0, *content);
    *stored_after_b = tc->store->total_stored_bytes();
    const Buffer back = co_await b.read(blob_b, vb, 0, content->size());
    *b_ok = (back == *content);
  }(&tc, &idx, &red_a, &red_b, ta, tb, &content, &after_a, &stored_after_a,
    &stored_after_b, &b_ok));

  // Cross-tenant dedup through the sharded index: nothing stored twice,
  // B restores bit-exactly from A's chunks.
  EXPECT_EQ(stored_after_b, stored_after_a);
  EXPECT_TRUE(b_ok);

  const auto after_b = snapshot(idx);
  std::uint64_t hits = 0;
  for (std::size_t s = 0; s < idx.shard_count(); ++s) {
    const bool owner = after_a[s].records > 0;
    const std::uint64_t hit_delta = after_b[s].hits - after_a[s].hits;
    hits += hit_delta;
    if (owner) {
      // B's lookups for this content went to the shard that recorded it.
      EXPECT_EQ(hit_delta, after_b[s].lookups - after_a[s].lookups)
          << "shard " << s << ": some lookup missed on indexed content";
    } else {
      // Tenant identity must not route identical content elsewhere.
      EXPECT_EQ(hit_delta, 0u) << "shard " << s;
      EXPECT_EQ(after_b[s].records, after_a[s].records) << "shard " << s;
      EXPECT_EQ(after_b[s].lookups, after_a[s].lookups) << "shard " << s;
    }
    // No new content keys anywhere: B's commit recorded nothing.
    EXPECT_EQ(after_b[s].records, after_a[s].records) << "shard " << s;
  }
  EXPECT_EQ(hits, 4u);  // every chunk of B's commit was a cross-tenant hit
}

// --- withdrawal confinement --------------------------------------------------

// A failed commit withdraws exactly the entries it recorded, from exactly
// the shards that own its content: every shard ends with records == forgets
// balanced against the pre-commit state, entry counts return to the
// pre-commit level, and previously indexed content keeps serving hits.
TEST(ShardTest, FailedCommitWithdrawalConfinedToOwningShard) {
  TestCluster tc;
  ChunkDigestIndex idx(16);
  const net::TenantId ta = tc.store->tenants().register_tenant("job-a");
  const net::TenantId tb = tc.store->tenants().register_tenant("job-b");
  Reducer red_a(*tc.store, all_on(), &idx, ta);
  Reducer red_b(*tc.store, all_on(), &idx, tb);
  const Buffer content_a = Buffer::pattern(2 * kChunk, 11);
  const Buffer content_b = Buffer::pattern(2 * kChunk, 22);

  std::vector<ChunkDigestIndex::ShardStats> before_b;
  std::vector<std::size_t> sizes_before_b;
  std::size_t index_size_before_b = 0;
  bool killed = false;
  std::uint64_t rehit = 0;
  bool a_ok = false;

  tc.run([](TestCluster* tc, ChunkDigestIndex* idx, Reducer* ra, Reducer* rb,
            net::TenantId ta, net::TenantId tb, const Buffer* content_a,
            const Buffer* content_b,
            std::vector<ChunkDigestIndex::ShardStats>* before_b,
            std::vector<std::size_t>* sizes_before_b,
            std::size_t* index_size_before_b, bool* killed,
            std::uint64_t* rehit, bool* a_ok) -> Task<> {
    BlobClient a(*tc->store, tc->client_node);
    a.set_tenant(ta);
    const BlobId blob_a = co_await a.create();
    const VersionId va =
        co_await write_reduced(a, *ra, blob_a, 0, *content_a);

    *before_b = snapshot(*idx);
    for (std::size_t s = 0; s < idx->shard_count(); ++s) {
      sizes_before_b->push_back(idx->shard_size(s));
    }
    *index_size_before_b = idx->size();

    // Tenant B commits fresh content and is fail-stopped at PrePublish:
    // all chunks are stored and indexed, the version is not yet published,
    // so the commit guard must withdraw B's entries on unwind.
    bool parked = false;
    sim::Event never(tc->sim);  // parking spot: set only by the kill
    blob::CommitProbe probe =
        [&parked, &never](blob::CommitStage s) -> Task<> {
      if (s == blob::CommitStage::PrePublish) {
        parked = true;
        co_await never.wait();  // killed while suspended here
      }
    };
    BlobClient::ExtentReader reader =
        [content_b](std::uint64_t off, std::uint64_t len) -> Task<Buffer> {
      co_return content_b->slice(off, len);
    };
    blob::CommitOptions opts;
    opts.reducer = rb;
    opts.probe = &probe;
    auto victim = tc->sim.spawn(
        "victim",
        [](TestCluster* tc, net::TenantId tb, const Buffer* content_b,
           BlobClient::ExtentReader* reader,
           blob::CommitOptions* opts) -> Task<> {
          BlobClient b(*tc->store, tc->client_node);
          b.set_tenant(tb);
          const BlobId blob_b = co_await b.create();
          std::vector<BlobClient::ExtentSpec> specs;
          specs.push_back({0, content_b->size()});
          co_await b.write_extents_via(blob_b, std::move(specs), reader,
                                       *opts);
        }(tc, tb, content_b, &reader, &opts));
    while (!parked) co_await tc->sim.delay(100 * sim::kMicrosecond);
    victim->kill();
    *killed = true;
    co_await tc->sim.delay(sim::kMillisecond);  // let the unwind settle

    // A's content must still be indexed: a third commit of the same bytes
    // is all hits, shipping nothing new.
    const std::uint64_t hits0 = rb->stats().dedup_hits;
    BlobClient c(*tc->store, tc->client_node);
    c.set_tenant(tb);
    const BlobId blob_c = co_await c.create();
    co_await write_reduced(c, *rb, blob_c, 0, *content_a);
    *rehit = rb->stats().dedup_hits - hits0;

    const Buffer back = co_await a.read(blob_a, va, 0, content_a->size());
    *a_ok = (back == *content_a);
  }(&tc, &idx, &red_a, &red_b, ta, tb, &content_a, &content_b, &before_b,
    &sizes_before_b, &index_size_before_b, &killed, &rehit, &a_ok));

  ASSERT_TRUE(killed);
  EXPECT_EQ(rehit, 2u);  // A's entries survived the withdrawal
  EXPECT_TRUE(a_ok);

  // Withdrawal accounting, shard by shard: B recorded into its content's
  // owning shards and withdrew exactly there; every other shard's counters
  // and entry table are untouched. (The rehit pass above adds hit/lookup
  // traffic but no records, so records/forgets/sizes are exact.)
  const auto after = snapshot(idx);
  EXPECT_EQ(idx.size(), index_size_before_b);
  std::uint64_t withdrawn = 0;
  for (std::size_t s = 0; s < idx.shard_count(); ++s) {
    const std::uint64_t rec_delta = after[s].records - before_b[s].records;
    const std::uint64_t fgt_delta = after[s].forgets - before_b[s].forgets;
    EXPECT_EQ(rec_delta, fgt_delta) << "shard " << s
                                    << ": withdrawal not balanced";
    EXPECT_EQ(idx.shard_size(s), sizes_before_b[s]) << "shard " << s;
    withdrawn += fgt_delta;
    if (rec_delta == 0) {
      EXPECT_EQ(fgt_delta, 0u)
          << "shard " << s << ": withdrawal touched a non-owning shard";
    }
  }
  EXPECT_EQ(withdrawn, 2u);  // both of B's chunks de-indexed
}

// --- epoch GC vs a racing pinned commit --------------------------------------

// A commit parked mid-flight (PrePublish: dedup Refs taken, version not yet
// published, so the chunks appear in no tree) holds pins on chunks that are
// simultaneously GC candidates via a dropped version. The epoch-based
// concurrent sweep — marking one version-manager shard per slice — must
// keep every pinned chunk, still reclaim genuinely dead ones, and the
// resumed commit must publish and restore bit-exactly.
TEST(ShardTest, EpochGcKeepsChunksPinnedByParkedCommit) {
  TestCluster tc(4, /*version_shards=*/4);
  // Isolated reducer: owns a 16-shard index and hooks the store's reclaim /
  // epoch / pin-source interfaces itself.
  Reducer red(*tc.store, all_on());

  blob::GarbageCollector::Result gc1;
  blob::GarbageCollector::Result gc2;
  bool b_ok = false;
  tc.run([](TestCluster* tc, Reducer* red,
            blob::GarbageCollector::Result* gc1,
            blob::GarbageCollector::Result* gc2, bool* b_ok) -> Task<> {
    const Buffer x = Buffer::pattern(2 * kChunk, 77);  // pinned by B
    Buffer v1_data = x;
    v1_data.append(Buffer::pattern(kChunk, 78));       // dead after v2
    const Buffer v2_data = Buffer::pattern(3 * kChunk, 79);

    BlobClient a(*tc->store, tc->client_node);
    const BlobId blob_a = co_await a.create();
    co_await write_reduced(a, *red, blob_a, 0, v1_data);
    co_await write_reduced(a, *red, blob_a, 0, v2_data);

    // B re-commits X: both chunks are dedup hits against v1's entries, so
    // B holds Refs (pins) while parked at PrePublish.
    bool parked = false;
    sim::Event resume(tc->sim);
    blob::CommitProbe probe =
        [&parked, &resume](blob::CommitStage s) -> Task<> {
      if (s == blob::CommitStage::PrePublish) {
        parked = true;
        co_await resume.wait();
      }
    };
    BlobClient::ExtentReader reader =
        [&x](std::uint64_t off, std::uint64_t len) -> Task<Buffer> {
      co_return x.slice(off, len);
    };
    blob::CommitOptions opts;
    opts.reducer = red;
    opts.probe = &probe;
    BlobClient b(*tc->store, tc->client_node);
    const BlobId blob_b = co_await b.create();
    VersionId vb = 0;
    bool done = false;
    tc->sim.spawn(
        "racer",
        [](BlobClient* b, BlobId blob, const Buffer* x,
           BlobClient::ExtentReader* reader, blob::CommitOptions* opts,
           VersionId* vb, bool* done) -> Task<> {
          std::vector<BlobClient::ExtentSpec> specs;
          specs.push_back({0, x->size()});
          *vb = co_await b->write_extents_via(blob, std::move(specs),
                                              reader, *opts);
          *done = true;
        }(&b, blob_b, &x, &reader, &opts, &vb, &done));
    while (!parked) co_await tc->sim.delay(100 * sim::kMicrosecond);

    // Concurrent sweep while B is parked: drop v1, keep v2. X's chunks are
    // candidates (only v1's dropped tree references them) but pinned.
    blob::GarbageCollector gc(*tc->store);
    std::vector<blob::GarbageCollector::Drop> drops{{blob_a, 2}};
    *gc1 = co_await gc.collect(drops);

    resume.set();
    while (!done) co_await tc->sim.delay(100 * sim::kMicrosecond);

    // Second sweep after B published: v1 is already tombstoned, X's chunks
    // are live via B's tree, and nothing further is reclaimable.
    *gc2 = co_await gc.collect(drops);
    const Buffer back = co_await b.read(blob_b, vb, 0, x.size());
    *b_ok = (back == x);
  }(&tc, &red, &gc1, &gc2, &b_ok));

  // Sweep 1: the dead chunk went, the pinned ones stayed, and the mark ran
  // one slice per version-manager shard (the incremental walk).
  EXPECT_EQ(gc1.chunks_deleted, 1u);
  EXPECT_EQ(gc1.reclaimed_bytes, kChunk);
  EXPECT_GE(gc1.chunks_kept_shared, 2u);
  EXPECT_EQ(gc1.mark_slices, 4u);
  // Sweep 2: nothing left to reclaim, and the read-back across it is
  // bit-exact — the resumed commit's chunks really survived both sweeps.
  EXPECT_EQ(gc2.chunks_deleted, 0u);
  EXPECT_EQ(gc2.reclaimed_bytes, 0u);
  EXPECT_TRUE(b_ok);
}

// --- GC epochs: one walk per node, against the reference collector -----------

// ReferenceCollector is GarbageCollector as it was before its epochs kept
// one bit per tree node and took several drops: one epoch drops one blob's
// versions, the mark keeps one visited set per version-manager shard, so a
// subtree that blobs in several shards share is walked once per shard, and
// the candidate walk has its own set and copies every chunk of the dropped
// trees into the candidates, shared or not. Seeded scripts run on two
// identical clusters, one collected by GarbageCollector and one by the
// reference, and every round must sweep the same chunks.
class ReferenceCollector {
 public:
  using Result = blob::GarbageCollector::Result;

  explicit ReferenceCollector(BlobStore& store) : store_(&store) {}

  Task<Result> collect_concurrent(BlobId blob, VersionId keep_from) {
    Epoch e = open_epoch(blob, keep_from);
    const std::size_t shards = store_->version_manager().shard_count();
    for (std::size_t s = 0; s < shards; ++s) {
      mark_shard(s, e);
      ++e.result.mark_slices;
      co_await store_->simulation().yield();
    }
    collect_candidates(e);
    finalize(e);
    for (std::size_t begin = 0; begin < e.swept.size();
         begin += kSweepBatch) {
      erase_range(e, begin, std::min(begin + kSweepBatch, e.swept.size()));
      ++e.result.sweep_batches;
      co_await store_->simulation().yield();
    }
    co_return e.result;
  }

 private:
  static constexpr std::size_t kSweepBatch = 64;

  struct Epoch {
    BlobId blob = 0;
    VersionId keep_from = 0;
    blob::ChunkId horizon = 0;
    std::unordered_set<blob::ChunkId> live;
    std::unordered_map<blob::ChunkId, blob::ChunkLocation> dropped;
    std::vector<blob::ChunkLocation> swept;
    Result result;
  };

  Epoch open_epoch(BlobId blob, VersionId keep_from) {
    Epoch e;
    e.blob = blob;
    e.keep_from = keep_from;
    e.horizon = store_->chunk_id_counter();
    store_->notify_gc_epoch(true);
    store_->collect_pinned_chunks(e.live);
    return e;
  }

  void mark_shard(std::size_t shard, Epoch& e) {
    std::unordered_set<blob::NodeRef> visited;
    store_->version_manager().for_each_blob_in_shard(
        shard, [&](const blob::BlobMeta& meta) {
          for (const blob::VersionInfo& v : meta.versions) {
            if (v.pending || v.root == 0) continue;
            if (meta.id == e.blob && v.id < e.keep_from) continue;
            mark_live(v.root, e.live, visited);
          }
        });
  }

  void collect_candidates(Epoch& e) {
    std::unordered_set<blob::NodeRef> visited;
    const blob::BlobMeta& target = store_->version_manager().peek(e.blob);
    for (const blob::VersionInfo& v : target.versions) {
      if (v.pending || v.root == 0 || v.id >= e.keep_from) continue;
      collect_chunks(v.root, e.dropped, visited);
    }
  }

  void finalize(Epoch& e) {
    store_->collect_pinned_chunks(e.live);
    std::vector<blob::ChunkId> swept_ids;
    for (const auto& [cid, loc] : e.dropped) {
      if (e.live.count(cid) != 0) {
        ++e.result.chunks_kept_shared;
        continue;
      }
      if (cid >= e.horizon) {
        ++e.result.deferred_post_epoch;
        continue;
      }
      e.swept.push_back(loc);
      swept_ids.push_back(cid);
    }
    store_->version_manager().drop_version_records(e.blob, e.keep_from);
    store_->notify_chunks_reclaimed(swept_ids);
    store_->notify_gc_epoch(false);
  }

  void erase_range(Epoch& e, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const blob::ChunkLocation& loc = e.swept[i];
      std::vector<net::NodeId> homes;
      if (loc.zone == store_->config().zone) {
        homes = store_->provider_manager().forget(loc.id);
      }
      if (homes.empty()) homes = loc.replicas;
      bool erased_any = false;
      for (const net::NodeId node : homes) {
        if (blob::DataProvider* p = store_->provider_at(node)) {
          erased_any = p->erase(loc.id) || erased_any;
        }
      }
      if (erased_any) {
        ++e.result.chunks_deleted;
        e.result.reclaimed_bytes += loc.size;
      }
    }
  }

  void mark_live(blob::NodeRef ref, std::unordered_set<blob::ChunkId>& live,
                 std::unordered_set<blob::NodeRef>& visited) {
    if (ref == 0 || !visited.insert(ref).second) return;
    const blob::TreeNode* node = store_->metadata().peek_node(ref);
    if (node == nullptr) return;
    if (node->leaf) {
      if (node->chunk.id != 0) live.insert(node->chunk.id);
      return;
    }
    mark_live(node->left, live, visited);
    mark_live(node->right, live, visited);
  }

  void collect_chunks(
      blob::NodeRef ref,
      std::unordered_map<blob::ChunkId, blob::ChunkLocation>& out,
      std::unordered_set<blob::NodeRef>& visited) {
    if (ref == 0 || !visited.insert(ref).second) return;
    const blob::TreeNode* node = store_->metadata().peek_node(ref);
    if (node == nullptr) return;
    if (node->leaf) {
      if (node->chunk.id != 0) out[node->chunk.id] = node->chunk;
      return;
    }
    collect_chunks(node->left, out, visited);
    collect_chunks(node->right, out, visited);
  }

  BlobStore* store_;
};

constexpr std::size_t kImageChunks = 16;

/// One script chunk: zeros (a zero-suppressed hole when reduced) or one of
/// 32 patterns, so reduced commits of different blobs and versions often
/// dedup onto the same chunk ids.
Buffer script_chunk(common::Rng& rng) {
  if (rng.chance(0.1)) return Buffer::zeros(kChunk);
  return Buffer::pattern(kChunk, 500 + rng.uniform(32));
}

/// Commits the listed chunks of `image` as the next version of `blob`:
/// reduced when `red` is set, plain otherwise.
Task<VersionId> commit_chunks(BlobClient& client, Reducer* red, BlobId blob,
                              const Buffer& image,
                              const std::vector<std::size_t>& dirty,
                              blob::CommitProbe* probe = nullptr) {
  std::vector<BlobClient::ExtentSpec> specs;
  for (const std::size_t c : dirty) specs.push_back({c * kChunk, kChunk});
  BlobClient::ExtentReader reader =
      [&image](std::uint64_t off, std::uint64_t len) -> Task<Buffer> {
    co_return image.slice(off, len);
  };
  blob::CommitOptions opts;
  opts.reducer = red;
  opts.probe = probe;
  co_return co_await client.write_extents_via(blob, std::move(specs), &reader,
                                              opts);
}

/// A blob's expected content at each published version (index v - 1) and
/// the first version the retention drops kept.
struct Lineage {
  BlobId id = 0;
  std::vector<Buffer> versions;
  VersionId floor = 1;
};

using Drops = std::vector<blob::GarbageCollector::Drop>;

/// Every drop of one script round: one epoch on the library, one epoch per
/// drop (in list order) on the reference.
Task<blob::GarbageCollector::Result> collect_round(blob::GarbageCollector& gc,
                                                   Drops drops) {
  co_return co_await gc.collect(std::move(drops));
}

Task<ReferenceCollector::Result> collect_round(ReferenceCollector& gc,
                                               Drops drops) {
  ReferenceCollector::Result sum;
  for (const blob::GarbageCollector::Drop& d : drops) {
    const ReferenceCollector::Result r =
        co_await gc.collect_concurrent(d.blob, d.keep_from);
    sum.reclaimed_bytes += r.reclaimed_bytes;
    sum.chunks_deleted += r.chunks_deleted;
    sum.chunks_kept_shared += r.chunks_kept_shared;
    sum.deferred_post_epoch += r.deferred_post_epoch;
    sum.mark_slices += r.mark_slices;
    sum.sweep_batches += r.sweep_batches;
  }
  co_return sum;
}

/// One GC round of a script: the collector's (summed) result and what the
/// store holds right after it.
struct EpochRecord {
  /// Blobs the round dropped versions of.
  std::size_t drops = 0;
  blob::GarbageCollector::Result result;
  std::uint64_t stored_bytes = 0;
  /// (provider index, chunk id) of every chunk a provider holds.
  std::vector<std::pair<std::size_t, blob::ChunkId>> chunks;
  /// Every version at or above its blob's floor read back bit-exactly.
  bool reads_exact = false;
  /// Every version the round dropped resolves to the garbage-collected
  /// error.
  bool dropped_gone = false;
  /// A reduced commit sat parked at PrePublish through the epoch.
  bool parked_commit = false;
  /// nodes_to_walk() just before the epoch.
  std::size_t nodes_to_walk = 0;
};

std::vector<std::pair<std::size_t, blob::ChunkId>> chunks_held(
    const TestCluster& tc) {
  std::vector<std::pair<std::size_t, blob::ChunkId>> out;
  const auto& providers = tc.store->providers();
  for (std::size_t p = 0; p < providers.size(); ++p) {
    for (blob::ChunkId id = tc.first_chunk;
         id < tc.store->chunk_id_counter(); ++id) {
      if (providers[p]->has(id)) out.emplace_back(p, id);
    }
  }
  return out;
}

/// True when every version below each drop's keep_from reads as
/// garbage-collected. A fresh client: a client caches the versions it
/// resolved, and the script's client read these before they were dropped.
Task<bool> dropped_gone(TestCluster& tc, const Drops& drops) {
  BlobClient client(*tc.store, tc.client_node);
  bool gone = true;
  for (const blob::GarbageCollector::Drop& d : drops) {
    for (VersionId v = 1; v < d.keep_from; ++v) {
      bool collected = false;
      try {
        (void)co_await client.read(d.blob, v, 0, kChunk);
      } catch (const blob::BlobError& e) {
        collected = std::string(e.what()).find("garbage-collected") !=
                    std::string::npos;
      }
      gone = gone && collected;
    }
  }
  co_return gone;
}

Task<bool> reads_exact(BlobClient& client, const std::vector<Lineage>& blobs) {
  bool exact = true;
  for (const Lineage& l : blobs) {
    for (VersionId v = l.floor; v <= l.versions.size(); ++v) {
      bool same = false;
      try {
        const Buffer back =
            co_await client.read(l.id, v, 0, kImageChunks * kChunk);
        same = back == l.versions[v - 1];
      } catch (const blob::BlobError&) {
        same = false;  // a chunk the sweep took from a kept version
      }
      exact = exact && same;
    }
  }
  co_return exact;
}

/// Distinct tree nodes reachable from `root` in `store`, added to `out`.
void reach(BlobStore& store, blob::NodeRef root,
           std::unordered_set<blob::NodeRef>& out) {
  std::vector<blob::NodeRef> stack{root};
  while (!stack.empty()) {
    const blob::NodeRef ref = stack.back();
    stack.pop_back();
    const blob::TreeNode* node = store.metadata().peek_node(ref);
    if (node == nullptr || !out.insert(ref).second || node->leaf) continue;
    stack.push_back(node->left);
    stack.push_back(node->right);
  }
}

/// What one epoch must walk: the distinct nodes reachable from the live
/// roots plus the nodes that only the dropped versions (each drop's blob's
/// below its keep_from) hold.
std::size_t nodes_to_walk(BlobStore& store, const Drops& drops) {
  std::unordered_set<blob::NodeRef> live;
  std::unordered_set<blob::NodeRef> dropped;
  store.version_manager().for_each_blob([&](const blob::BlobMeta& m) {
    for (const blob::VersionInfo& v : m.versions) {
      if (v.pending || v.root == 0) continue;
      const bool gone = std::any_of(
          drops.begin(), drops.end(),
          [&](const blob::GarbageCollector::Drop& d) {
            return d.blob == m.id && v.id < d.keep_from;
          });
      reach(store, v.root, gone ? dropped : live);
    }
  });
  std::size_t n = live.size();
  for (const blob::NodeRef r : dropped) n += live.count(r) == 0;
  return n;
}

/// The seeded script: a base blob, clones until every version-manager shard
/// holds one, then rounds of random chunk rewrites (reduced or plain) and
/// one GC round each, which drops versions of one blob or of 2-3 distinct
/// blobs. In round 2 a reduced commit parks at PrePublish holding dedup
/// pins on chunks that only the dropped versions hold, across the sweep.
template <class Collector>
Task<> gc_script(TestCluster* tc, std::uint64_t seed,
                 std::vector<EpochRecord>* log) {
  common::Rng rng(seed);
  Reducer red(*tc->store, all_on());
  BlobClient client(*tc->store, tc->client_node);
  Collector gc(*tc->store);
  std::vector<std::size_t> all_chunks;
  for (std::size_t c = 0; c < kImageChunks; ++c) all_chunks.push_back(c);

  std::vector<Lineage> blobs(1);
  blobs[0].id = co_await client.create();
  Buffer image;
  for (std::size_t c = 0; c < kImageChunks; ++c) {
    image.append(script_chunk(rng));
  }
  co_await commit_chunks(client, &red, blobs[0].id, image, all_chunks);
  blobs[0].versions.push_back(image);

  const auto every_shard_holds_a_blob = [&] {
    const blob::VersionManager& vm = tc->store->version_manager();
    for (std::size_t s = 0; s < vm.shard_count(); ++s) {
      std::size_t n = 0;
      vm.for_each_blob_in_shard(s, [&n](const blob::BlobMeta&) { ++n; });
      if (n == 0) return false;
    }
    return true;
  };
  while (blobs.size() < 5 || !every_shard_holds_a_blob()) {
    Lineage clone;
    clone.id = co_await client.clone(blobs[0].id, 1);
    clone.versions.push_back(image);
    blobs.push_back(std::move(clone));
  }

  for (int round = 0; round < 8; ++round) {
    for (Lineage& l : blobs) {
      if (!rng.chance(0.6)) continue;
      Buffer next = l.versions.back();
      std::vector<std::size_t> dirty;
      for (std::size_t c = 0; c < kImageChunks; ++c) {
        if (rng.chance(0.2)) dirty.push_back(c);
      }
      if (dirty.empty()) dirty.push_back(rng.uniform(kImageChunks));
      for (const std::size_t c : dirty) {
        next.overwrite(c * kChunk, script_chunk(rng));
      }
      co_await commit_chunks(client, rng.chance(0.7) ? &red : nullptr, l.id,
                             next, dirty);
      l.versions.push_back(std::move(next));
    }

    Lineage* parked_on = nullptr;
    Buffer parked_image;
    BlobClient parked_client(*tc->store, tc->client_node);
    bool parked = false;
    bool published = false;
    VersionId parked_version = 0;
    sim::Event resume(tc->sim);
    blob::CommitProbe probe =
        [&parked, &resume](blob::CommitStage s) -> Task<> {
      if (s == blob::CommitStage::PrePublish) {
        parked = true;
        co_await resume.wait();
      }
    };
    Drops drops;
    if (round == 2) {
      // Fresh content lands in one version of a blob and is overwritten by
      // the next, so only the version this sweep drops holds it. A reduced
      // commit of that content to another blob dedups onto those chunks
      // and parks at PrePublish: its pins alone keep them.
      const std::size_t t = rng.uniform(blobs.size());
      Lineage& target = blobs[t];
      const std::vector<std::size_t> fresh_chunks{0, 1, 2, 3};
      parked_image = target.versions.back();
      for (const std::size_t c : fresh_chunks) {
        parked_image.overwrite(c * kChunk,
                               Buffer::pattern(kChunk, 1000 + 16 * seed + c));
      }
      co_await commit_chunks(client, &red, target.id, parked_image,
                             fresh_chunks);
      target.versions.push_back(parked_image);
      Buffer next = parked_image;
      for (const std::size_t c : fresh_chunks) {
        next.overwrite(c * kChunk, script_chunk(rng));
      }
      co_await commit_chunks(client, &red, target.id, next, fresh_chunks);
      target.versions.push_back(std::move(next));
      drops.push_back(
          {target.id, static_cast<VersionId>(target.versions.size())});

      parked_on = &blobs[(t + 1) % blobs.size()];
      tc->sim.spawn(
          "parked-commit",
          [](BlobClient* c, Reducer* red, BlobId blob, const Buffer* image,
             const std::vector<std::size_t>* dirty, blob::CommitProbe* probe,
             VersionId* v, bool* published) -> Task<> {
            *v = co_await commit_chunks(*c, red, blob, *image, *dirty, probe);
            *published = true;
          }(&parked_client, &red, parked_on->id, &parked_image, &all_chunks,
            &probe, &parked_version, &published));
      while (!parked) co_await tc->sim.delay(100 * sim::kMicrosecond);
    } else {
      std::vector<std::size_t> droppable;
      for (std::size_t i = 0; i < blobs.size(); ++i) {
        if (blobs[i].floor < blobs[i].versions.size()) droppable.push_back(i);
      }
      if (droppable.empty()) continue;
      // Half the rounds drop 2-3 distinct blobs at once.
      std::size_t n = 1;
      if (droppable.size() > 1 && rng.chance(0.5)) {
        n = std::min<std::size_t>(droppable.size(), 2 + rng.uniform(2));
      }
      for (std::size_t k = 0; k < n; ++k) {
        std::swap(droppable[k],
                  droppable[k + rng.uniform(droppable.size() - k)]);
        const Lineage& l = blobs[droppable[k]];
        drops.push_back({l.id, static_cast<VersionId>(
                                   l.floor + 1 +
                                   rng.uniform(l.versions.size() - l.floor))});
      }
    }

    EpochRecord rec;
    rec.drops = drops.size();
    rec.parked_commit = parked_on != nullptr;
    rec.nodes_to_walk = nodes_to_walk(*tc->store, drops);
    rec.result = co_await collect_round(gc, drops);
    for (const blob::GarbageCollector::Drop& d : drops) {
      for (Lineage& l : blobs) {
        if (l.id == d.blob) l.floor = d.keep_from;
      }
    }
    rec.stored_bytes = tc->store->total_stored_bytes();
    rec.chunks = chunks_held(*tc);
    rec.reads_exact = co_await reads_exact(client, blobs);
    rec.dropped_gone = co_await dropped_gone(*tc, drops);
    log->push_back(std::move(rec));

    if (parked_on != nullptr) {
      resume.set();
      while (!published) co_await tc->sim.delay(100 * sim::kMicrosecond);
      EXPECT_EQ(parked_version, parked_on->versions.size() + 1);
      parked_on->versions.push_back(parked_image);
    }
  }
}

template <class Collector>
std::vector<EpochRecord> run_gc_script(std::uint64_t seed,
                                       std::size_t version_shards,
                                       std::uint32_t zone) {
  TestCluster tc(4, version_shards, zone);
  std::vector<EpochRecord> log;
  tc.run(gc_script<Collector>(&tc, seed, &log));
  return log;
}

// Every round sweeps exactly what the reference sweeps, over seeds, shard
// counts and a zone-1 store whose ids start at 1 + (1 << 48): the same
// bytes and chunks go, the same chunks stay on each provider, every kept
// version reads back bit-exactly and every dropped one as garbage-
// collected. A single-drop round is one epoch on both sides, so the slices
// and batches match too; a multi-drop round is one epoch on the library
// (one mark slice per shard) against one per drop on the reference. The
// library's candidates hold no subtree a live tree shares, so it can only
// count fewer chunks kept shared, and it walks each reachable node once.
TEST(GcEpochTest, MatchesReferenceCollector) {
  struct Run {
    std::uint64_t seed;
    std::size_t version_shards;
    std::uint32_t zone;
  };
  std::vector<Run> runs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    runs.push_back({seed, 1, 0});
    runs.push_back({seed, 4, 0});
  }
  runs.push_back({7, 4, 1});

  std::size_t deleted = 0;
  std::size_t kept_shared = 0;
  std::size_t multi_rounds = 0;
  std::size_t multi_deleted = 0;
  for (const Run& run : runs) {
    SCOPED_TRACE(common::strf("seed %llu, %zu shards, zone %u",
                              static_cast<unsigned long long>(run.seed),
                              run.version_shards, run.zone));
    const std::vector<EpochRecord> lib = run_gc_script<blob::GarbageCollector>(
        run.seed, run.version_shards, run.zone);
    const std::vector<EpochRecord> ref = run_gc_script<ReferenceCollector>(
        run.seed, run.version_shards, run.zone);
    ASSERT_EQ(lib.size(), ref.size());
    EXPECT_TRUE(std::any_of(lib.begin(), lib.end(), [](const EpochRecord& r) {
      return r.parked_commit;
    }));
    for (std::size_t i = 0; i < lib.size(); ++i) {
      SCOPED_TRACE(common::strf("round %zu, %zu drops", i, lib[i].drops));
      ASSERT_EQ(lib[i].drops, ref[i].drops);
      const blob::GarbageCollector::Result& a = lib[i].result;
      const blob::GarbageCollector::Result& b = ref[i].result;
      EXPECT_EQ(a.reclaimed_bytes, b.reclaimed_bytes);
      EXPECT_EQ(a.chunks_deleted, b.chunks_deleted);
      EXPECT_EQ(a.deferred_post_epoch, b.deferred_post_epoch);
      if (lib[i].drops == 1) {
        EXPECT_EQ(a.mark_slices, b.mark_slices);
        EXPECT_EQ(a.sweep_batches, b.sweep_batches);
      } else {
        EXPECT_EQ(a.mark_slices, run.version_shards);
        ++multi_rounds;
        multi_deleted += a.chunks_deleted;
      }
      EXPECT_LE(a.chunks_kept_shared, b.chunks_kept_shared);
      EXPECT_EQ(a.nodes_walked, lib[i].nodes_to_walk);
      EXPECT_EQ(lib[i].stored_bytes, ref[i].stored_bytes);
      EXPECT_EQ(lib[i].chunks, ref[i].chunks);
      EXPECT_TRUE(lib[i].reads_exact);
      EXPECT_TRUE(ref[i].reads_exact);
      EXPECT_TRUE(lib[i].dropped_gone);
      EXPECT_TRUE(ref[i].dropped_gone);
      deleted += b.chunks_deleted;
      kept_shared += b.chunks_kept_shared;
    }
  }
  // The scripts exercise both outcomes, chunks swept and chunks kept, and
  // multi-drop rounds that sweep.
  EXPECT_GT(deleted, 0u);
  EXPECT_GT(kept_shared, 0u);
  EXPECT_GT(multi_rounds, 0u);
  EXPECT_GT(multi_deleted, 0u);
}

// One epoch walks each tree node once, whatever the shard count: the
// distinct nodes reachable from the live roots plus the nodes that only the
// dropped versions hold. Clones on every shard share the base image's
// tree, which a mark with one visited set per shard walked once per shard.
TEST(GcEpochTest, WalksEachNodeOncePerEpoch) {
  std::vector<std::size_t> walked;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    TestCluster tc(4, shards);
    std::size_t expected = 0;
    std::size_t per_shard_walks = 0;
    blob::GarbageCollector::Result result;
    tc.run([](TestCluster* tc, std::size_t* expected,
              std::size_t* per_shard_walks,
              blob::GarbageCollector::Result* result) -> Task<> {
      BlobClient client(*tc->store, tc->client_node);
      Buffer image;
      for (std::size_t c = 0; c < kImageChunks; ++c) {
        image.append(Buffer::pattern(kChunk, 900 + c));
      }
      const BlobId base = co_await client.create();
      co_await client.write(base, 0, image);
      // Eight clones land on every one of four shards (blob ids and their
      // shards are deterministic); each rewrites one chunk twice.
      std::vector<BlobId> clones;
      for (int i = 0; i < 8; ++i) {
        const BlobId c = co_await client.clone(base, 1);
        co_await client.write(c, (i % kImageChunks) * kChunk,
                              Buffer::pattern(kChunk, 950 + i));
        co_await client.write(c, ((i + 3) % kImageChunks) * kChunk,
                              Buffer::pattern(kChunk, 970 + i));
        clones.push_back(c);
      }
      const blob::VersionManager& vm = tc->store->version_manager();
      if (vm.shard_count() == 4) {
        for (std::size_t s = 0; s < 4; ++s) {
          std::size_t n = 0;
          vm.for_each_blob_in_shard(s, [&](const blob::BlobMeta& m) {
            n += m.cloned_from == base ? 1 : 0;
          });
          EXPECT_GT(n, 0u) << "no clone on shard " << s;
        }
      }

      // Drop versions 1 and 2 of the first clone. A mark with one visited
      // set per shard, plus a candidate walk with its own, walks the live
      // nodes of each shard and every node of the dropped trees.
      const BlobId target = clones[0];
      const VersionId keep_from = 3;
      const Drops drops{{target, keep_from}};
      *expected = nodes_to_walk(*tc->store, drops);
      std::unordered_set<blob::NodeRef> dropped;
      for (std::size_t s = 0; s < vm.shard_count(); ++s) {
        std::unordered_set<blob::NodeRef> shard_live;
        vm.for_each_blob_in_shard(s, [&](const blob::BlobMeta& m) {
          for (const blob::VersionInfo& v : m.versions) {
            reach(*tc->store, v.root,
                  m.id == target && v.id < keep_from ? dropped : shard_live);
          }
        });
        *per_shard_walks += shard_live.size();
      }
      *per_shard_walks += dropped.size();

      blob::GarbageCollector gc(*tc->store);
      *result = co_await gc.collect(drops);
    }(&tc, &expected, &per_shard_walks, &result));
    EXPECT_EQ(result.nodes_walked, expected);
    EXPECT_EQ(result.mark_slices, shards);
    if (shards == 4) {
      EXPECT_LT(result.nodes_walked, per_shard_walks);
    }
    walked.push_back(result.nodes_walked);
  }
  EXPECT_EQ(walked[0], walked[1]);
}

// The digest index serves the GC of every store it is hooked into, so a
// second epoch may open and close while the first is still marking. The
// hit log lives until the last open epoch closes.
TEST(GcEpochTest, OverlappingEpochsKeepTheHitLogUntilTheLastCloses) {
  ChunkDigestIndex idx;
  blob::ChunkLocation loc;
  loc.id = 10;
  loc.size = 64;
  idx.record(7, 64, loc);
  std::unordered_set<blob::ChunkId> hits;

  idx.open_gc_epoch();
  idx.open_gc_epoch();
  ASSERT_NE(idx.lookup(7, 64), nullptr);
  idx.close_gc_epoch();
  idx.collect_epoch_hits(hits);
  EXPECT_EQ(hits, (std::unordered_set<blob::ChunkId>{10}));

  idx.close_gc_epoch();
  hits.clear();
  idx.collect_epoch_hits(hits);
  EXPECT_TRUE(hits.empty());
  ASSERT_NE(idx.lookup(7, 64), nullptr);
  idx.collect_epoch_hits(hits);
  EXPECT_TRUE(hits.empty());

  // A close with no epoch open changes nothing: the next epoch still logs.
  idx.close_gc_epoch();
  idx.open_gc_epoch();
  ASSERT_NE(idx.lookup(7, 64), nullptr);
  idx.collect_epoch_hits(hits);
  EXPECT_EQ(hits, (std::unordered_set<blob::ChunkId>{10}));
  idx.close_gc_epoch();
}

// A concurrent sweep killed in its mark closes its epoch as its frame
// unwinds, so the index stops logging hits instead of counting an epoch
// that never ends.
TEST(GcEpochTest, KilledSweepClosesItsEpoch) {
  TestCluster tc(4, /*version_shards=*/4);
  Reducer red(*tc.store, all_on());
  bool logged_while_open = false;
  bool logged_after_kill = true;
  tc.run([](TestCluster* tc, Reducer* red, bool* logged_while_open,
            bool* logged_after_kill) -> Task<> {
    BlobClient client(*tc->store, tc->client_node);
    const Buffer data = Buffer::pattern(2 * kChunk, 31);
    const BlobId blob = co_await client.create();
    co_await write_reduced(client, *red, blob, 0, data);
    co_await write_reduced(client, *red, blob, 0, Buffer::pattern(kChunk, 32));

    blob::GarbageCollector gc(*tc->store);
    sim::ProcessPtr sweep = tc->sim.spawn(
        "sweep", [](blob::GarbageCollector* gc, BlobId blob) -> Task<> {
          Drops drops{{blob, 2}};
          (void)co_await gc->collect(std::move(drops));
        }(&gc, blob));
    co_await tc->sim.yield();  // the sweep opens its epoch and yields
    EXPECT_FALSE(sweep->finished());
    const std::uint64_t digest = data.slice(0, kChunk).digest();
    std::unordered_set<blob::ChunkId> hits;
    EXPECT_NE(red->index().lookup(digest, kChunk), nullptr);
    red->index().collect_epoch_hits(hits);
    *logged_while_open = !hits.empty();

    sweep->kill();
    hits.clear();
    EXPECT_NE(red->index().lookup(digest, kChunk), nullptr);
    red->index().collect_epoch_hits(hits);
    *logged_after_kill = !hits.empty();
  }(&tc, &red, &logged_while_open, &logged_after_kill));
  EXPECT_TRUE(logged_while_open);
  EXPECT_FALSE(logged_after_kill);
}

// --- per-shard lookup queues --------------------------------------------------

// attach_service gives every shard one request queue with a single worker
// (the shard's lock): lookups routed to one shard serialize, other shards
// keep serving in the same instant, the order inside a shard follows the
// registry's weights when there is one, and a lookup killed in the queue
// leaves no trace.

constexpr std::uint32_t kRaw = 4096;
constexpr sim::Duration kLookupCost = sim::kMillisecond;

/// A four-shard index holding digests 1..64 (chunk id == digest), with the
/// recorded digests grouped by owning shard.
struct QueuedIndex {
  ChunkDigestIndex idx{4};
  std::vector<std::vector<std::uint64_t>> by_shard;

  QueuedIndex() : by_shard(4) {
    for (std::uint64_t d = 1; d <= 64; ++d) {
      blob::ChunkLocation loc;
      loc.id = d;
      loc.size = kRaw;
      idx.record(d, kRaw, loc);
      by_shard[idx.shard_of(d, kRaw)].push_back(d);
    }
  }
};

struct Finished {
  std::uint64_t digest;
  sim::Time at;
  const blob::ChunkLocation* loc;
};

Task<> queued_lookup(Simulation* sim, ChunkDigestIndex* idx,
                     net::TenantId tenant, std::uint64_t digest,
                     std::vector<Finished>* log) {
  const blob::ChunkLocation* loc =
      co_await idx->lookup_queued(tenant, digest, kRaw);
  log->push_back({digest, sim->now(), loc});
}

TEST(ShardQueueTest, LookupsSerializePerShardAndReturnWhatLookupReturns) {
  QueuedIndex q;
  Simulation sim;
  q.idx.attach_service(sim, kLookupCost, nullptr);
  ASSERT_TRUE(q.idx.service_attached());
  const std::vector<std::uint64_t>& a = q.by_shard[0];
  const std::vector<std::uint64_t>& b = q.by_shard[1];
  ASSERT_GE(a.size(), 4u);
  ASSERT_FALSE(b.empty());

  std::vector<Finished> on_a, on_b;
  for (std::size_t i = 0; i < 4; ++i) {
    sim.spawn("lookup-a", queued_lookup(&sim, &q.idx, net::kDefaultTenant,
                                        a[i], &on_a));
  }
  sim.spawn("lookup-b",
            queued_lookup(&sim, &q.idx, net::kDefaultTenant, b[0], &on_b));
  sim.run();

  ASSERT_EQ(on_a.size(), 4u);
  for (std::size_t i = 0; i < on_a.size(); ++i) {
    EXPECT_EQ(on_a[i].digest, a[i]);
    EXPECT_EQ(on_a[i].at, static_cast<sim::Time>(i + 1) * kLookupCost);
  }
  ASSERT_EQ(on_b.size(), 1u);
  EXPECT_EQ(on_b[0].at, kLookupCost);  // shard 1 never waited for shard 0
  for (const Finished& f : on_a) {
    ASSERT_NE(f.loc, nullptr);
    EXPECT_EQ(f.loc, q.idx.lookup(f.digest, kRaw));
    EXPECT_EQ(f.loc->id, f.digest);
  }
  EXPECT_EQ(on_b[0].loc, q.idx.lookup(b[0], kRaw));
  EXPECT_EQ(q.idx.shard_stats(0).lookups, 4u + 4u);  // queued + direct
  EXPECT_EQ(q.idx.shard_stats(0).hits, 4u + 4u);

  // A miss comes back as a miss.
  std::vector<Finished> miss;
  sim.spawn("lookup-miss",
            queued_lookup(&sim, &q.idx, net::kDefaultTenant, 1000, &miss));
  sim.run();
  ASSERT_EQ(miss.size(), 1u);
  EXPECT_EQ(miss[0].loc, nullptr);
  EXPECT_EQ(q.idx.lookup(1000, kRaw), nullptr);
}

TEST(ShardQueueTest, WeightedTenantOvertakesBacklogOnlyOverARegistry) {
  for (const bool fair : {true, false}) {
    QueuedIndex q;
    Simulation sim;
    qos::TenantRegistry registry;
    const net::TenantId bulk = registry.register_tenant("bulk", 1);
    const net::TenantId small = registry.register_tenant("small", 4);
    q.idx.attach_service(sim, kLookupCost, fair ? &registry : nullptr);
    const std::uint64_t d = q.by_shard[2].at(0);

    std::vector<Finished> bulk_log, small_log;
    for (int i = 0; i < 5; ++i) {
      sim.spawn("bulk", queued_lookup(&sim, &q.idx, bulk, d, &bulk_log));
    }
    sim.spawn("small", queued_lookup(&sim, &q.idx, small, d, &small_log));
    sim.run();

    ASSERT_EQ(bulk_log.size(), 5u);
    ASSERT_EQ(small_log.size(), 1u);
    std::vector<sim::Time> bulk_at;
    for (const Finished& f : bulk_log) bulk_at.push_back(f.at / kLookupCost);
    if (fair) {
      // The weight-4 tenant's one lookup goes right after the lookup in
      // service, ahead of the weight-1 backlog.
      EXPECT_EQ(small_log[0].at, 2 * kLookupCost);
      EXPECT_EQ(bulk_at, (std::vector<sim::Time>{1, 3, 4, 5, 6}));
    } else {
      EXPECT_EQ(small_log[0].at, 6 * kLookupCost);  // arrival order
      EXPECT_EQ(bulk_at, (std::vector<sim::Time>{1, 2, 3, 4, 5}));
    }
  }
}

TEST(ShardQueueTest, LookupKilledWhileQueuedIsNotCountedAndFreesItsTurn) {
  for (const bool fair : {true, false}) {
    QueuedIndex q;
    Simulation sim;
    qos::TenantRegistry registry;
    const net::TenantId tenant = registry.register_tenant("job", 1);
    q.idx.attach_service(sim, kLookupCost, fair ? &registry : nullptr);
    const std::uint64_t d = q.by_shard[3].at(0);
    const std::size_t shard = q.idx.shard_of(d, kRaw);

    std::vector<Finished> log;
    sim.spawn("first", queued_lookup(&sim, &q.idx, tenant, d, &log));
    auto victim =
        sim.spawn("victim", queued_lookup(&sim, &q.idx, tenant, d, &log));
    sim.spawn("next", queued_lookup(&sim, &q.idx, tenant, d, &log));
    sim.call_at(kLookupCost / 2, [&] { victim->kill(); });
    sim.run();

    EXPECT_EQ(victim->state(), sim::Process::State::Killed);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].at, kLookupCost);
    EXPECT_EQ(log[1].at, 2 * kLookupCost);  // not held up by the victim
    EXPECT_EQ(q.idx.shard_stats(shard).lookups, 2u);
  }
}

// --- version-manager sharding ------------------------------------------------

// The blob version-slot table and the named-blob registry must behave
// identically at every shard count: create/write/read round-trips, name
// binding and resolution, stat, and the full-registry walk.
TEST(ShardTest, NamedRegistryCorrectAcrossShardCounts) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{16}}) {
    TestCluster tc(4, shards);
    ASSERT_EQ(tc.store->version_manager().shard_count(), shards);

    constexpr std::size_t kBlobs = 12;
    std::vector<BlobId> ids;
    std::vector<BlobId> looked_up;
    std::size_t read_ok = 0;
    std::size_t stat_ok = 0;
    tc.run([](TestCluster* tc, std::vector<BlobId>* ids,
              std::vector<BlobId>* looked_up, std::size_t* read_ok,
              std::size_t* stat_ok) -> Task<> {
      BlobClient client(*tc->store, tc->client_node);
      for (std::size_t k = 0; k < kBlobs; ++k) {
        const BlobId id = co_await client.create();
        ids->push_back(id);
        const Buffer data =
            Buffer::pattern(2 * kChunk, static_cast<int>(100 + k));
        const VersionId v = co_await client.write(id, 0, data);
        co_await client.bind_name(common::strf("ckpt/job%zu", k), id);
        const Buffer back = co_await client.read(id, v, 0, data.size());
        if (back == data) ++(*read_ok);
      }
      for (std::size_t k = 0; k < kBlobs; ++k) {
        looked_up->push_back(
            co_await client.lookup_name(common::strf("ckpt/job%zu", k)));
        const blob::BlobMeta meta = co_await client.stat((*ids)[k]);
        if (meta.id == (*ids)[k] && meta.versions.size() == 1) ++(*stat_ok);
      }
    }(&tc, &ids, &looked_up, &read_ok, &stat_ok));

    EXPECT_EQ(read_ok, kBlobs) << "shards=" << shards;
    EXPECT_EQ(stat_ok, kBlobs) << "shards=" << shards;
    ASSERT_EQ(looked_up.size(), kBlobs) << "shards=" << shards;
    for (std::size_t k = 0; k < kBlobs; ++k) {
      EXPECT_EQ(looked_up[k], ids[k]) << "shards=" << shards << " k=" << k;
    }
    // An unbound name resolves to 0 at every shard count.
    EXPECT_EQ(tc.store->version_manager().peek_name("ckpt/none"), 0u);

    // The registry walk sees every blob exactly once, whatever the shard
    // layout.
    std::size_t walked = 0;
    tc.store->version_manager().for_each_blob(
        [&walked](const blob::BlobMeta&) { ++walked; });
    EXPECT_EQ(walked, kBlobs) << "shards=" << shards;

    // With real sharding the load actually spreads: 12 blobs + 12 names
    // hash across more than one queue.
    if (shards > 1) {
      std::size_t active = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        if (tc.store->version_manager().shard_requests(s) > 0) ++active;
      }
      EXPECT_GE(active, 2u) << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace blobcr::reduce
