// Tests for the sharded metadata plane: content-hash routing in the digest
// index (cross-tenant dedup without cross-shard traffic), withdrawal
// confinement on failed commits, the epoch-based concurrent GC against a
// commit parked mid-flight holding dedup pins, the per-shard lookup queues
// (serialization, tenant order, kill-safety), and the blob/name-hash
// sharded version manager across shard counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/store.h"
#include "common/strutil.h"
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
/// with a configurable version-manager shard count.
struct TestCluster {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<BlobStore> store;
  net::NodeId client_node = 0;

  explicit TestCluster(std::size_t n_data = 4, std::size_t version_shards = 1) {
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
    store = std::make_unique<BlobStore>(sim, *fabric, cfg);
    client_node = static_cast<net::NodeId>(total - 1);
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
    *gc1 = co_await gc.collect_concurrent(blob_a, 2);

    resume.set();
    while (!done) co_await tc->sim.delay(100 * sim::kMicrosecond);

    // Second sweep after B published: v1 is already tombstoned, X's chunks
    // are live via B's tree, and nothing further is reclaimable.
    *gc2 = co_await gc.collect_concurrent(blob_a, 2);
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
