// Cross-repo federation tests: multi-zone BlobStores joined by
// federation::Fabric. Commit affinity lands each instance's checkpoints in
// its own zone's store; the flush drain replicates manifests, catalog
// frames and chunk payloads to sibling zones; restart fetches resolve
// nearest-zone-first (local replica before WAN before origin); and the
// capstone drill — kill an entire zone's BlobStore mid-run — restarts every
// Complete checkpoint bit-exactly from the surviving zone, including a
// fresh driver that recovers the catalog from replicated frames alone.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/multi_job.h"
#include "blob/client.h"
#include "core/blobcr.h"
#include "cr/session.h"
#include "federation/federation.h"
#include "flush/flush_agent.h"
#include "reduce/reducer.h"
#include "sim/sim.h"

namespace blobcr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using cr::CheckpointRecord;
using cr::RecordState;
using cr::Selector;
using cr::Session;
using sim::Task;

CloudConfig fed_cfg(std::size_t zones, std::size_t compute_nodes = 8) {
  CloudConfig cfg;
  cfg.compute_nodes = compute_nodes;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.flush.enabled = true;  // zone failover needs drained manifests
  cfg.federation.zones = zones;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

Task<> write_state(vm::VmInstance* vm, std::uint64_t seed) {
  guestfs::SimpleFs* fs = vm->fs();
  co_await fs->write_file("/data/state.bin", Buffer::pattern(250'000, seed));
  co_await fs->sync();
}

Task<bool> state_matches(vm::VmInstance* vm, std::uint64_t seed) {
  const Buffer state = co_await vm->fs()->read_file("/data/state.bin");
  co_return state == Buffer::pattern(250'000, seed);
}

// ---------------------------------------------------------------------------
// Construction: zone slabs get their own stores with disjoint id spaces,
// and the node->zone / blob->zone maps agree with the layout.
// ---------------------------------------------------------------------------

TEST(FederationTest, ZoneLayoutAndIdSpaces) {
  Cloud cloud(fed_cfg(2, 8));
  ASSERT_EQ(cloud.zones(), 2u);
  federation::Fabric* fed = cloud.federation();
  ASSERT_NE(fed, nullptr);
  EXPECT_TRUE(fed->enabled());

  // Compute slab split 4/4.
  EXPECT_EQ(fed->zone_of_node(0), 0u);
  EXPECT_EQ(fed->zone_of_node(3), 0u);
  EXPECT_EQ(fed->zone_of_node(4), 1u);
  EXPECT_EQ(fed->zone_of_node(7), 1u);

  blob::BlobStore* z0 = cloud.blob_store(0);
  blob::BlobStore* z1 = cloud.blob_store(1);
  ASSERT_NE(z0, nullptr);
  ASSERT_NE(z1, nullptr);
  EXPECT_EQ(z0->config().zone, 0u);
  EXPECT_EQ(z1->config().zone, 1u);

  cloud.run([](Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    // Per-zone base images: ids decode to their home zone, and each zone's
    // store resolves its own.
    const blob::BlobId b0 = cl->base_blob(0);
    const blob::BlobId b1 = cl->base_blob(1);
    EXPECT_EQ(federation::Fabric::zone_of_blob(b0), 0u);
    EXPECT_EQ(federation::Fabric::zone_of_blob(b1), 1u);
    EXPECT_EQ(cl->store_of_blob(b0), cl->blob_store(0));
    EXPECT_EQ(cl->store_of_blob(b1), cl->blob_store(1));
  }(&cloud));
}

// ---------------------------------------------------------------------------
// Commit affinity + async drain replication: an instance on zone-0 nodes
// commits into the zone-0 store; the drain registers a federated manifest
// and floor-copies the version's chunks into the buddy zone.
// ---------------------------------------------------------------------------

TEST(FederationTest, DrainReplicatesManifestAndFloorCopies) {
  Cloud cloud(fed_cfg(2, 8));
  cloud.run([](Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);  // node 0 -> zone 0
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 7);
    const CheckpointRecord rec = co_await session.checkpoint("affinity");
    EXPECT_EQ(rec.state, RecordState::Complete);

    federation::Fabric* fed = cl->federation();
    const core::InstanceSnapshot& s = rec.snapshots.at(0);
    EXPECT_EQ(federation::Fabric::zone_of_blob(s.image), 0u)
        << "commit did not land in the instance's own zone";
    EXPECT_TRUE(fed->has_manifest(s.image, s.version));
    EXPECT_GT(fed->replicated_chunks(), 0u);
    EXPECT_GT(fed->replicated_bytes(), 0u);
    EXPECT_GT(fed->manifest_bytes(), 0u);
    EXPECT_GT(fed->catalog_bytes(), 0u);  // catalog frames crossed zones too
  }(&cloud));
}

// ---------------------------------------------------------------------------
// GC reaches the cross-zone copies: the federation observes every zone
// store's GC, so a retention pass that sweeps zone-0 chunks also erases
// their floor copies in the buddy zone, and their directory entries.
// ---------------------------------------------------------------------------

TEST(FederationTest, RetentionErasesCrossZoneCopiesOfSweptChunks) {
  Cloud cloud(fed_cfg(2, 8));
  struct Outcome {
    std::uint64_t reclaimed = 0;
    std::size_t swept_copies = 0;  // swept chunks that had a zone-1 copy
    std::uint64_t swept_copy_bytes = 0;
    std::size_t entries_before = 0;
    std::size_t entries_after = 0;
    std::uint64_t buddy_before = 0;
    std::uint64_t buddy_after = 0;
  } out;
  cloud.run([](Cloud* cl, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);  // node 0 -> zone 0
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();
    std::vector<CheckpointRecord> recs;
    for (std::uint64_t seed = 7; seed <= 8; ++seed) {
      co_await write_state(&dep.vm(0), seed);
      recs.push_back(co_await session.checkpoint());
    }

    // Every leaf of both versions that the drains copied into zone 1.
    blob::BlobStore* home = cl->blob_store(0);
    blob::BlobStore* buddy = cl->blob_store(1);
    blob::BlobClient client(*home, cl->compute_node(0));
    std::map<blob::ChunkId, blob::ChunkLocation> copied;
    for (const CheckpointRecord& rec : recs) {
      const core::InstanceSnapshot& s = rec.snapshots.at(0);
      const blob::BlobMeta meta = co_await client.stat(s.image);
      const std::vector<blob::BlobClient::ChunkRef> refs =
          co_await client.resolve_chunks(s.image, s.version, 0,
                                         meta.version(s.version).size);
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        for (const auto& p : buddy->providers()) {
          if (ref.loc.id != 0 && p->has(ref.loc.id)) {
            copied.emplace(ref.loc.id, ref.loc);
          }
        }
      }
    }

    federation::Fabric* fed = cl->federation();
    out->entries_before = fed->replica_entries();
    out->buddy_before = buddy->total_stored_bytes();
    out->reclaimed = co_await session.apply_retention();
    out->entries_after = fed->replica_entries();
    out->buddy_after = buddy->total_stored_bytes();
    for (const auto& [id, loc] : copied) {
      bool held = false;
      for (const auto& p : home->providers()) held = held || p->has(id);
      if (held) continue;
      ++out->swept_copies;
      out->swept_copy_bytes += loc.size;
    }
  }(&cloud, &out));

  EXPECT_GT(out.reclaimed, 0u);
  EXPECT_GT(out.swept_copies, 0u);
  EXPECT_EQ(out.entries_before - out.entries_after, out.swept_copies);
  EXPECT_EQ(out.buddy_before - out.buddy_after, out.swept_copy_bytes);
}

// ---------------------------------------------------------------------------
// Nearest-zone serving: a reader restarting in a foreign zone with no
// replicas (synchronous commits: no drain, so no floor copy) pulls over the
// WAN class from the origin zone; with floor replication off the async
// drain the same restart serves from its local zone's replicas and ships
// (almost) nothing over the WAN.
// ---------------------------------------------------------------------------

TEST(FederationTest, NearestZoneRestartPrefersLocalReplicas) {
  auto wan_bytes_after_foreign_restart = [](bool replicate) {
    CloudConfig cfg = fed_cfg(2, 8);
    cfg.flush.enabled = replicate;
    Cloud cloud(cfg);
    std::uint64_t wan = 0;
    cloud.run([](Cloud* cl, std::uint64_t* wan) -> Task<> {
      co_await cl->provision_base_image();
      {
        Deployment dep(*cl, 1);
        Session session(dep);
        co_await dep.deploy_and_boot();
        co_await write_state(&dep.vm(0), 21);
        (void)co_await session.checkpoint("wan");
        dep.destroy_all();
      }
      // Fresh driver restarts the checkpoint onto a zone-1 node; the image
      // (and with replication off, every chunk) lives in zone 0.
      Deployment dep2(*cl, 1);
      Session session2(dep2);
      (void)co_await session2.restart(Selector::latest(),
                                      {.node_offset = 4, .cold_caches = true});
      EXPECT_TRUE(co_await state_matches(&dep2.vm(0), 21));
      *wan = dep2.source_bytes().wan;
    }(&cloud, &wan));
    return wan;
  };

  const std::uint64_t wan_unreplicated = wan_bytes_after_foreign_restart(false);
  const std::uint64_t wan_replicated = wan_bytes_after_foreign_restart(true);
  EXPECT_GT(wan_unreplicated, 0u)
      << "origin-zone fetches must ride the WAN class";
  EXPECT_LT(wan_replicated, wan_unreplicated)
      << "floor replicas in the reader's zone should displace WAN fetches";
}

// ---------------------------------------------------------------------------
// The capstone drill: kill an entire zone's BlobStore mid-run. A fresh
// driver on the surviving zone recovers the catalog from replicated frames,
// adopts the dead zone's version via the federated manifest, and restores
// guest state bit-exactly from the surviving replicas.
// ---------------------------------------------------------------------------

TEST(FederationTest, ZoneLossRestartIsBitExactFromSurvivor) {
  Cloud cloud(fed_cfg(2, 8));
  bool ok0 = false, ok1 = false;
  cloud.run([](Cloud* cl, bool* ok0, bool* ok1) -> Task<> {
    co_await cl->provision_base_image();
    {
      // Both instances on zone-0 nodes; checkpoints land in zone 0.
      auto dep = std::make_unique<Deployment>(*cl, 2);
      auto session = std::make_unique<Session>(*dep);
      co_await dep->deploy_and_boot();
      co_await write_state(&dep->vm(0), 100);
      co_await write_state(&dep->vm(1), 101);
      const CheckpointRecord rec = co_await session->checkpoint("pre-loss");
      EXPECT_EQ(rec.state, RecordState::Complete);
      dep->destroy_all();
      // Total driver loss: no in-memory object survives this block.
    }

    // The whole of zone 0 — every data provider of its store — dies.
    cl->federation()->fail_zone(0);
    EXPECT_FALSE(cl->federation()->alive(0));

    // Fresh driver on the survivor: list + restart onto zone-1 nodes.
    Deployment dep2(*cl, 2);
    Session session2(dep2);
    const CheckpointRecord rec = co_await session2.restart(
        Selector::latest(), {.node_offset = 4, .cold_caches = true});
    EXPECT_EQ(rec.tag, "pre-loss");
    *ok0 = co_await state_matches(&dep2.vm(0), 100);
    *ok1 = co_await state_matches(&dep2.vm(1), 101);

    // The catalog rehomed: its log now lives on the surviving store, and
    // the lineage is listable.
    const std::vector<CheckpointRecord> records = co_await session2.list();
    EXPECT_EQ(records.size(), 1u);
    if (!records.empty()) {
      EXPECT_EQ(records[0].state, RecordState::Complete);
    }

    // Post-loss life goes on: the restarted deployment checkpoints into
    // the surviving zone and restores from it.
    co_await write_state(&dep2.vm(0), 200);
    const CheckpointRecord rec2 = co_await session2.checkpoint("post-loss");
    EXPECT_EQ(rec2.state, RecordState::Complete);
    EXPECT_EQ(federation::Fabric::zone_of_blob(rec2.snapshots.at(0).image),
              1u);
  }(&cloud, &ok0, &ok1));
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

// A never-drained (synchronous-commit) version cannot fail over: the
// federation refuses the restart loudly instead of serving a torn image.
TEST(FederationTest, ZoneLossWithoutManifestRefusesRestart) {
  CloudConfig cfg = fed_cfg(2, 8);
  cfg.flush.enabled = false;  // synchronous commits: no drain, no manifest
  Cloud cloud(cfg);
  cloud.run([](Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    {
      Deployment dep(*cl, 1);
      Session session(dep);
      co_await dep.deploy_and_boot();
      co_await write_state(&dep.vm(0), 5);
      (void)co_await session.checkpoint("sync");
      dep.destroy_all();
    }
    cl->federation()->fail_zone(0);
    Deployment dep2(*cl, 1);
    Session session2(dep2);
    bool threw = false;
    try {
      (void)co_await session2.restart(Selector::latest(),
                                      {.node_offset = 4, .cold_caches = true});
    } catch (const blob::BlobError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "restart of a never-drained version from a dead "
                          "zone must fail loudly";
  }(&cloud));
}

// ---------------------------------------------------------------------------
// Three zones + hot budget: popularity-ordered extra copies land beyond the
// buddy zone, so a third zone holds replicas too.
// ---------------------------------------------------------------------------

TEST(FederationTest, HotBudgetPushesCopiesBeyondBuddyZone) {
  CloudConfig cfg = fed_cfg(3, 9);
  cfg.federation.hot_budget_bytes = 64 * common::kMB;
  Cloud cloud(cfg);
  cloud.run([](Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 9);
    (void)co_await session.checkpoint("hot");

    // Zones 1 AND 2 must hold copies (floor covers the buddy; the hot
    // budget covers the rest).
    std::uint64_t z1 = 0, z2 = 0;
    for (const auto& p : cl->blob_store(1)->providers()) {
      z1 += p->stored_bytes();
    }
    for (const auto& p : cl->blob_store(2)->providers()) {
      z2 += p->stored_bytes();
    }
    EXPECT_GT(z1, 0u) << "floor copies missing from the buddy zone";
    EXPECT_GT(z2, 0u) << "hot copies missing from the third zone";

    // And the zone-loss drill still holds when restarting into the THIRD
    // zone: hot copies serve locally, the rest pulls from the buddy zone.
    cl->federation()->fail_zone(0);
    Deployment dep2(*cl, 1);
    Session session2(dep2);
    (void)co_await session2.restart(Selector::latest(),
                                    {.node_offset = 6, .cold_caches = true});
    EXPECT_TRUE(co_await state_matches(&dep2.vm(0), 9));
  }(&cloud));
}

// ---------------------------------------------------------------------------
// A single-zone config is a 1-zone fabric: the classic layout, and none of
// the federation machinery (replication, WAN fetches, catalog frames)
// engages through a checkpoint and a restart.
// ---------------------------------------------------------------------------

TEST(FederationTest, SingleZoneIsADisabledFabric) {
  Cloud cloud(fed_cfg(1, 4));
  EXPECT_EQ(cloud.zones(), 1u);
  federation::Fabric* fed = cloud.federation();
  ASSERT_NE(fed, nullptr);
  EXPECT_EQ(fed->zones(), 1u);
  EXPECT_FALSE(fed->enabled());
  cloud.run([](Cloud* cl) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 3);
    const CheckpointRecord rec = co_await session.checkpoint();
    EXPECT_EQ(rec.state, RecordState::Complete);
    (void)co_await session.restart(Selector::latest(), {.node_offset = 1});
    EXPECT_TRUE(co_await state_matches(&dep.vm(0), 3));
    EXPECT_EQ(dep.source_bytes().wan, 0u);
  }(&cloud));
  EXPECT_EQ(fed->cross_zone_bytes(), 0u);
  EXPECT_EQ(fed->replica_entries(), 0u);
  EXPECT_EQ(fed->catalog_records(cr::Catalog::Config{}.name), nullptr);
}

// ---------------------------------------------------------------------------
// Per-tenant usage spans every zone: a multi-job run whose second job sits
// on zone-1 nodes commits into the zone-1 store, and that job's result
// counts those bytes (Cloud::tenant_usage sums every zone's store).
// ---------------------------------------------------------------------------

TEST(FederationTest, MultiJobUsageSumsEveryZone) {
  Cloud cloud(fed_cfg(2, 8));  // zone 0 = nodes 0-3, zone 1 = nodes 4-7
  apps::TenantJobSpec filler;
  filler.name = "zone0-filler";
  filler.instances = 4;  // every zone-0 node
  filler.buffer_bytes = 512 * 1024;
  filler.rounds = 1;
  filler.do_restart = false;
  apps::TenantJobSpec job = filler;
  job.name = "zone1-job";
  job.instances = 1;  // node 4
  apps::MultiJobRun run;
  run.jobs = {filler, job};
  const apps::MultiJobResult r = apps::run_multi_job(cloud, run);
  ASSERT_TRUE(r.all_verified());

  const apps::JobResult& j = r.jobs[1];
  const blob::BlobStore::TenantUsage z0 =
      cloud.blob_store(0)->tenant_usage_snapshot(j.tenant);
  const blob::BlobStore::TenantUsage z1 =
      cloud.blob_store(1)->tenant_usage_snapshot(j.tenant);
  EXPECT_GT(z1.raw_bytes, 0u) << "the job's commits did not land in zone 1";
  EXPECT_GT(j.usage.raw_bytes, 0u);
  EXPECT_EQ(j.usage.raw_bytes, z0.raw_bytes + z1.raw_bytes);
  EXPECT_EQ(j.usage.shipped_bytes, z0.shipped_bytes + z1.shipped_bytes);
  EXPECT_EQ(j.usage.commits, z0.commits + z1.commits);
}

// ---------------------------------------------------------------------------
// One reducer per deployment serves every zone: a deployment spanning two
// zones reduces both instances' commits through Deployment::reducer(), each
// against its own store's zone. The zone-1 instance commits content the
// zone-0 instance already stored, yet its leaves stay in zone 1 (a dedup
// Ref never crosses zones), and the next identical round dedups it against
// those zone-1 chunks.
// ---------------------------------------------------------------------------

TEST(FederationTest, OneReducerServesEveryZone) {
  CloudConfig cfg = fed_cfg(2, 8);  // zone 0 = nodes 0-3, zone 1 = nodes 4-7
  cfg.reduction.enabled = true;
  Cloud cloud(cfg);
  struct Outcome {
    bool spans_zones = false;
    std::uint64_t raw_bytes = 0;
    std::uint64_t payloads = 0;  // both mirrors' last_commit_payload()
    std::size_t digest_leaves = 0;  // of instance 1's first version
    std::size_t foreign = 0;  // digest leaves of instance 1 outside zone 1
    std::size_t zone1_refs = 0;  // second-round leaves on first-round chunks
  } out;

  cloud.run([](Cloud* cl, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2, 3);  // node 3 -> zone 0, node 4 -> zone 1
    Session session(dep);
    co_await dep.deploy_and_boot();

    // Every chunk of this state reads alike, so a rewrite the file system
    // places elsewhere still matches the earlier chunks one for one.
    const Buffer state =
        Buffer::real(std::vector<std::byte>(common::kMiB, std::byte{0x5a}));
    // One round: both instances write the state, instance 0 commits (and
    // drains, so its chunks are indexed) before instance 1.
    const auto round = [](Deployment* dep, Session* session,
                          const Buffer* state) -> Task<> {
      for (std::size_t i = 0; i < 2; ++i) {
        co_await dep->vm(i).fs()->write_file("/data/state.bin", *state);
        co_await dep->vm(i).fs()->sync();
      }
      (void)co_await dep->snapshot_instance(0);
      co_await dep->wait_drained(0);
      (void)co_await dep->snapshot_instance(1);
      (void)co_await session->commit_last();
    };
    // Instance 1's digest-carrying leaves of its latest version (chunk
    // index -> chunk id); counts the ones outside zone 1.
    const auto leaves = [](Cloud* cl, Deployment* dep, Outcome* out)
        -> Task<std::map<std::uint64_t, blob::ChunkId>> {
      const core::InstanceSnapshot s =
          dep->collect_last_snapshots().snapshots.at(1);
      blob::BlobClient client(*cl->store_of_blob(s.image),
                              cl->compute_node(4));
      const blob::BlobMeta meta = co_await client.stat(s.image);
      const std::vector<blob::BlobClient::ChunkRef> refs =
          co_await client.resolve_chunks(s.image, s.version, 0,
                                         meta.version(s.version).size);
      std::map<std::uint64_t, blob::ChunkId> ids;
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        if (ref.loc.digest == 0) continue;
        ids[ref.index] = ref.loc.id;
        if (ref.loc.zone != 1) ++out->foreign;
      }
      co_return ids;
    };

    co_await round(&dep, &session, &state);
    const core::GlobalCheckpoint line = dep.collect_last_snapshots();
    out->spans_zones =
        federation::Fabric::zone_of_blob(line.snapshots.at(0).image) == 0 &&
        federation::Fabric::zone_of_blob(line.snapshots.at(1).image) == 1;
    out->raw_bytes = dep.reducer()->stats().raw_bytes;
    out->payloads = dep.instance(0).mirror->last_commit_payload() +
                    dep.instance(1).mirror->last_commit_payload();
    const std::map<std::uint64_t, blob::ChunkId> first =
        co_await leaves(cl, &dep, out);
    out->digest_leaves = first.size();

    co_await round(&dep, &session, &state);
    std::set<blob::ChunkId> stored;
    for (const auto& [index, id] : first) stored.insert(id);
    for (const auto& [index, id] : co_await leaves(cl, &dep, out)) {
      const auto it = first.find(index);
      const bool rewritten = it == first.end() || it->second != id;
      if (rewritten && stored.contains(id)) ++out->zone1_refs;
    }
  }(&cloud, &out));

  EXPECT_TRUE(out.spans_zones);
  EXPECT_GT(out.raw_bytes, 0u);
  EXPECT_EQ(out.raw_bytes, out.payloads)
      << "the reducer did not see both zones' commits";
  EXPECT_GT(out.digest_leaves, 0u);
  EXPECT_EQ(out.foreign, 0u) << "instance 1 holds leaves outside zone 1";
  EXPECT_GT(out.zone1_refs, 0u);
}

}  // namespace
}  // namespace blobcr
