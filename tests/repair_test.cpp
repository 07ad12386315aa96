// RepairService tests: re-replication after provider loss restores the
// replication factor, readers find re-homed chunks through the provider
// manager's locate() fail-over, and a repaired repository survives a second
// failure that an unrepaired one would not. Garbage collection reclaims a
// chunk from its repaired homes too.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/repair.h"
#include "blob/store.h"
#include "federation/federation.h"
#include "sim/sim.h"

namespace blobcr::blob {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;

/// A small in-memory cluster hosting one BlobStore (mirrors blob_test.cpp).
struct TestCluster {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<BlobStore> store;
  net::NodeId client_node = 0;
  net::NodeId first_data_node = 0;

  explicit TestCluster(std::size_t n_data = 4, int replication = 2,
                       std::uint64_t chunk_size = 1024) {
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
    first_data_node = static_cast<net::NodeId>(2 + n_meta);
    for (std::size_t i = 0; i < n_data; ++i) {
      const net::NodeId node = static_cast<net::NodeId>(2 + n_meta + i);
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
      cfg.data_providers.push_back({node, disks.back().get(), 1});
    }
    cfg.default_chunk_size = chunk_size;
    cfg.tree_depth = 10;
    cfg.replication = replication;
    store = std::make_unique<BlobStore>(sim, *fabric, cfg);
    client_node = static_cast<net::NodeId>(total - 1);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }

  /// The data node that holds the most chunk bytes (a worthwhile victim).
  net::NodeId busiest_provider() const {
    net::NodeId best = first_data_node;
    std::uint64_t most = 0;
    for (const auto& p : store->providers()) {
      if (p->stored_bytes() >= most) {
        most = p->stored_bytes();
        best = p->node();
      }
    }
    return best;
  }
};

TEST(RepairTest, RestoresReplicationFactorAfterNodeLoss) {
  TestCluster cluster(4, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(64 * 1024, 5));

    RepairService repair(*c->store);
    EXPECT_EQ(repair.under_replicated(2), 0u);

    c->store->fail_node(c->busiest_provider());
    EXPECT_GT(repair.under_replicated(2), 0u);

    const RepairService::Report report = co_await repair.repair(2);
    EXPECT_GT(report.copies_made, 0u);
    EXPECT_EQ(report.lost, 0u);
    EXPECT_EQ(report.unrepairable, 0u);
    EXPECT_GT(report.bytes_copied, 0u);
    EXPECT_EQ(repair.under_replicated(2), 0u);
  }(&cluster));
}

TEST(RepairTest, RepairedDataSurvivesSecondFailure) {
  TestCluster cluster(5, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    const Buffer payload = Buffer::pattern(96 * 1024, 7);
    const VersionId v = co_await client.write(blob, 0, payload);

    // First failure + repair: back to 2 live replicas of everything.
    c->store->fail_node(c->busiest_provider());
    RepairService repair(*c->store);
    (void)co_await repair.repair(2);

    // Second failure: without the repair this could drop the last copy of
    // some chunk; with it, every chunk still has one live replica...
    c->store->fail_node(c->busiest_provider());
    const Buffer back = co_await client.read(blob, v, 0, payload.size());
    EXPECT_TRUE(back == payload);
  }(&cluster));
}

TEST(RepairTest, WithoutRepairSecondFailureLosesData) {
  // The control for the test above: same failures, no repair pass.
  TestCluster cluster(5, /*replication=*/2);
  bool lost = false;
  cluster.run([](TestCluster* c, bool* lost) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    const Buffer payload = Buffer::pattern(96 * 1024, 7);
    const VersionId v = co_await client.write(blob, 0, payload);

    c->store->fail_node(c->busiest_provider());
    c->store->fail_node(c->busiest_provider());
    try {
      (void)co_await client.read(blob, v, 0, payload.size());
    } catch (const BlobError&) {
      *lost = true;
    }
  }(&cluster, &lost));
  EXPECT_TRUE(lost);
}

TEST(RepairTest, ReadersFindRehomedChunksThroughLocate) {
  // With replication 1, the metadata lists exactly one home per chunk.
  // Raise the factor to 2 via repair, then kill one provider: every chunk
  // whose *listed* home died is only reachable through the provider
  // manager's locate() registry — the read proves that path works.
  TestCluster cluster(4, /*replication=*/1);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    const Buffer payload = Buffer::pattern(32 * 1024, 11);
    const VersionId v = co_await client.write(blob, 0, payload);

    // Bump replication 1 -> 2 via repair (also a legitimate use: raising
    // the factor of existing data).
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(2);
    EXPECT_GT(report.copies_made, 0u);

    // Some chunks' single metadata-listed home is now dead; their repair
    // copies live elsewhere and are only findable via locate().
    c->store->fail_node(c->busiest_provider());
    const Buffer back = co_await client.read(blob, v, 0, payload.size());
    EXPECT_TRUE(back == payload);

    // The restart data plane's reader: every leaf fetched one by one
    // through the repository fabric (1 zone) finds its re-homed copy too.
    federation::Fabric repo(c->sim, *c->fabric, federation::FederationConfig{});
    repo.add_zone(c->store.get(), 0, c->client_node + 1);
    const std::vector<BlobClient::ChunkRef> refs =
        co_await client.resolve_chunks(blob, v, 0, payload.size());
    EXPECT_EQ(refs.size(), 32u);
    std::size_t unreachable = 0;
    for (const BlobClient::ChunkRef& ref : refs) {
      Buffer leaf;
      bool failed = false;
      try {
        leaf = (co_await repo.fetch_decoded(ref.loc, c->client_node,
                                            qos::IoContext{}))
                   .data;
      } catch (const BlobError&) {
        failed = true;
      }
      if (failed) {
        ++unreachable;
        continue;
      }
      const std::uint64_t cs = c->store->config().default_chunk_size;
      EXPECT_TRUE(leaf == payload.slice(ref.index * cs, leaf.size()))
          << "leaf " << ref.index;
    }
    EXPECT_EQ(unreachable, 0u);
  }(&cluster));
}

TEST(RepairTest, CollectedChunksLeaveTheirRepairedHomes) {
  TestCluster cluster(5, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(64 * 1024, 5));
    c->store->fail_node(c->busiest_provider());
    RepairService repair(*c->store);
    const RepairService::Report first = co_await repair.repair(2);
    EXPECT_GT(first.copies_made, 0u);

    // Overwrite every chunk, then reclaim the first version: each of its
    // chunks goes from wherever the repair put it.
    const VersionId v2 =
        co_await client.write(blob, 0, Buffer::pattern(64 * 1024, 6));
    GarbageCollector gc(*c->store);
    std::vector<GarbageCollector::Drop> drops{{blob, v2}};
    const GarbageCollector::Result reclaimed =
        co_await gc.collect(std::move(drops));
    EXPECT_EQ(reclaimed.chunks_deleted, 64u);
    EXPECT_EQ(c->store->total_stored_bytes(), 2u * 64 * 1024);
    EXPECT_EQ(c->store->provider_manager().placements().size(), 64u);

    // Nothing is left to re-replicate, and no reclaimed chunk reads as lost.
    const RepairService::Report second = co_await repair.repair(2);
    EXPECT_EQ(second.chunks_scanned, 64u);
    EXPECT_EQ(second.copies_made, 0u);
    EXPECT_EQ(second.lost, 0u);
  }(&cluster));
}

TEST(RepairTest, ReportsLostChunksWhenNoReplicaSurvives) {
  TestCluster cluster(3, /*replication=*/1);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(48 * 1024, 3));

    // Replication 1: losing any holder loses chunks for good.
    c->store->fail_node(c->busiest_provider());
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(1);
    EXPECT_GT(report.lost, 0u);
    EXPECT_EQ(report.copies_made, 0u);  // nothing left to copy from
    EXPECT_LE(report.lost, report.chunks_scanned);
  }(&cluster));
}

TEST(RepairTest, IdempotentWhenHealthy) {
  TestCluster cluster(4, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(64 * 1024, 9));
    RepairService repair(*c->store);
    const RepairService::Report first = co_await repair.repair(2);
    EXPECT_EQ(first.copies_made, 0u);
    EXPECT_EQ(first.bytes_copied, 0u);
    const RepairService::Report second = co_await repair.repair(2);
    EXPECT_EQ(second.copies_made, 0u);
  }(&cluster));
}

TEST(RepairTest, UnrepairableWhenTooFewLiveProviders) {
  TestCluster cluster(3, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(16 * 1024, 4));
    // Down to 2 live providers; target 3 cannot be met for any chunk.
    c->store->fail_node(c->busiest_provider());
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(3);
    EXPECT_GT(report.unrepairable, 0u);
  }(&cluster));
}

TEST(RepairTest, LostAccountingIsExactWhenEveryProviderDies) {
  TestCluster cluster(3, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(24 * 1024, 8));

    for (const auto& p : c->store->providers()) {
      c->store->fail_node(p->node());
    }
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(2);
    // Zero live replicas anywhere: every scanned chunk is lost, none is
    // merely unrepairable (the lost path short-circuits), nothing copies.
    EXPECT_GT(report.chunks_scanned, 0u);
    EXPECT_EQ(report.lost, report.chunks_scanned);
    EXPECT_EQ(report.unrepairable, 0u);
    EXPECT_EQ(report.copies_made, 0u);
    EXPECT_EQ(report.bytes_copied, 0u);
    // under_replicated counts only chunks that still have a live copy.
    EXPECT_EQ(repair.under_replicated(2), 0u);
  }(&cluster));
}

TEST(RepairTest, UnrepairableAccountingWhenNoEligibleDestinationExists) {
  // Two providers at replication 2: every chunk lives on both, so after one
  // node dies the only live provider already holds everything — there is no
  // eligible destination, and the deficit is permanent until a node joins.
  TestCluster cluster(2, /*replication=*/2);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    const Buffer payload = Buffer::pattern(24 * 1024, 13);
    const VersionId v = co_await client.write(blob, 0, payload);

    c->store->fail_node(c->busiest_provider());
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(2);
    EXPECT_GT(report.chunks_scanned, 0u);
    EXPECT_EQ(report.unrepairable, report.chunks_scanned);
    EXPECT_EQ(report.lost, 0u);
    EXPECT_EQ(report.copies_made, 0u);
    EXPECT_EQ(report.bytes_copied, 0u);
    // The deficit persists (a second pass accounts it identically)...
    const RepairService::Report again = co_await repair.repair(2);
    EXPECT_EQ(again.unrepairable, again.chunks_scanned);
    EXPECT_GT(repair.under_replicated(2), 0u);
    // ...but the data is still readable from the surviving replica.
    const Buffer back = co_await client.read(blob, v, 0, payload.size());
    EXPECT_TRUE(back == payload);
  }(&cluster));
}

TEST(RepairTest, PartialRepairCountsBothCopyAndUnrepairable) {
  // One chunk on 3 of 4 providers. Kill two holders: deficit 2, but only
  // one eligible destination (the non-holder) survives — the pass makes the
  // one copy it can AND records the chunk as unrepairable for the rest.
  TestCluster cluster(4, /*replication=*/3, /*chunk_size=*/1024);
  cluster.run([](TestCluster* c) -> Task<> {
    BlobClient client(*c->store, c->client_node);
    const BlobId blob = co_await client.create();
    (void)co_await client.write(blob, 0, Buffer::pattern(1024, 21));

    std::size_t failed = 0;
    for (const auto& p : c->store->providers()) {
      if (p->stored_bytes() > 0 && failed < 2) {
        c->store->fail_node(p->node());
        ++failed;
      }
    }
    EXPECT_EQ(failed, 2u);
    RepairService repair(*c->store);
    const RepairService::Report report = co_await repair.repair(3);
    EXPECT_EQ(report.chunks_scanned, 1u);
    EXPECT_EQ(report.copies_made, 1u);     // the one possible copy happened
    EXPECT_EQ(report.unrepairable, 1u);    // the same chunk stays short
    EXPECT_EQ(report.lost, 0u);
    EXPECT_GT(report.bytes_copied, 0u);
  }(&cluster));
}

TEST(RepairTest, InvalidTargetThrows) {
  TestCluster cluster(3, 1);
  cluster.run([](TestCluster* c) -> Task<> {
    RepairService repair(*c->store);
    bool threw = false;
    try {
      (void)co_await repair.repair(0);
    } catch (const BlobError&) {
      threw = true;
    }
    EXPECT_TRUE(threw);
  }(&cluster));
}

}  // namespace
}  // namespace blobcr::blob
