// Tests for the content-addressed restart data plane: decode-on-read
// through the peer-exchange path (Zero/RLE/Raw chunks restored via a peer
// copy must be bit-exact against a direct repository fetch), a rank joining
// mid-restart, the per-node decoded-chunk cache (decode once per node, not
// once per rank), zero-transfer hole materialization, and the deployment-
// level property that per-instance repository bytes shrink as instances
// share restart content.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/scenarios.h"
#include "blob/client.h"
#include "core/chunk_cache.h"
#include "core/cloud.h"
#include "core/mirror_device.h"
#include "federation/federation.h"
#include "reduce/reducer.h"
#include "sim/sim.h"

namespace blobcr::core {
namespace {

using common::Buffer;
using sim::Task;

constexpr std::uint64_t kChunk = 4096;
constexpr std::uint64_t kImage = 8 * kChunk;

/// A standalone store whose base image goes through the full reduction
/// pipeline, so its leaves carry every encoding the restart path decodes:
/// Raw (incompressible), Zero (suppressed hole), Rle (compressed run) and a
/// dedup Ref aliasing the Raw chunk.
struct ReducedRig {
  sim::Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  /// 1-zone repository fabric over `store` (what mirrors fetch through).
  std::unique_ptr<federation::Fabric> repo;
  std::unique_ptr<reduce::Reducer> reducer;
  blob::BlobId base = 0;
  Buffer content;           // ground-truth logical image
  net::NodeId host_a = 0;   // mirror hosts: the last three nodes
  net::NodeId host_b = 0;
  net::NodeId host_c = 0;
  /// One decoded-chunk cache per mirror built here, as a standalone host
  /// has; the rig outlives every bus and parity tier that indexes them.
  std::vector<std::unique_ptr<DecodedChunkCache>> caches;

  ReducedRig() {
    const std::size_t n_data = 4;
    const std::size_t total = 2 + 2 + n_data + 3;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = 100e6;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);
    blob::BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    cfg.metadata_nodes = {2, 3};
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 1e9;
    dcfg.position_cost = sim::kMillisecond;
    for (std::size_t i = 0; i < n_data + 3; ++i) {
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
    }
    for (std::size_t i = 0; i < n_data; ++i) {
      cfg.data_providers.push_back(
          {static_cast<net::NodeId>(4 + i), disks[i].get(), 1});
    }
    cfg.default_chunk_size = kChunk;
    cfg.tree_depth = 10;
    store = std::make_unique<blob::BlobStore>(sim, *fabric, cfg);
    repo = std::make_unique<federation::Fabric>(sim, *fabric,
                                                federation::FederationConfig{});
    repo->add_zone(store.get(), 0, static_cast<net::NodeId>(total));
    host_a = static_cast<net::NodeId>(total - 3);
    host_b = static_cast<net::NodeId>(total - 2);
    host_c = static_cast<net::NodeId>(total - 1);

    reduce::ReductionConfig rcfg;
    rcfg.enabled = true;
    reducer = std::make_unique<reduce::Reducer>(
        std::vector<blob::BlobStore*>{store.get()}, rcfg);

    // chunk 0: incompressible pattern   -> Raw
    // chunk 1: zeros                    -> Zero (metadata-only hole)
    // chunk 2: one repeated byte        -> Rle
    // chunk 3: duplicate of chunk 0     -> Ref (intra-commit dedup)
    // chunks 4..7: distinct patterns    -> Raw
    content = Buffer::pattern(kChunk, 7);
    content.append(Buffer::zeros(kChunk));
    content.append(Buffer::real(
        std::vector<std::byte>(kChunk, std::byte{0x41})));
    content.append(Buffer::pattern(kChunk, 7));
    for (int i = 0; i < 4; ++i) {
      content.append(Buffer::pattern(kChunk, 100 + i));
    }
    run([](ReducedRig* rig) -> Task<> {
      blob::BlobClient client(*rig->store, rig->host_a);
      rig->base = co_await client.create(kChunk);
      std::vector<blob::BlobClient::ExtentSpec> specs{{0, kImage}};
      blob::BlobClient::ExtentReader reader =
          [rig](std::uint64_t off, std::uint64_t len) -> Task<Buffer> {
        co_return rig->content.slice(off, len);
      };
      (void)co_await client.write_extents_via(
          rig->base, std::move(specs), &reader,
          {.reducer = rig->reducer.get()});
    }(this));
  }

  DecodedChunkCache& fresh_cache() {
    caches.push_back(std::make_unique<DecodedChunkCache>(512 * common::kMiB));
    return *caches.back();
  }

  /// A mirror on `host` over `cache`, or over a fresh cache of its own.
  std::unique_ptr<MirrorDevice> make_mirror(net::NodeId host,
                                            PrefetchBus* bus = nullptr,
                                            DecodedChunkCache* cache =
                                                nullptr) {
    MirrorDevice::Config cfg;
    cfg.capacity = kImage;
    const std::size_t disk_idx = 4 + (host % 3);
    return std::make_unique<MirrorDevice>(
        *repo, host, *disks[disk_idx], 90 + host, base, 1, cfg,
        cache != nullptr ? *cache : fresh_cache(), bus);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

TEST(RestartDataPlaneTest, PeerCopyIsBitExactForZeroRleRawAndRefChunks) {
  ReducedRig rig;
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);

  Buffer direct;
  Buffer via_m1;
  Buffer via_m2;
  rig.run([](ReducedRig* r, MirrorDevice* a, MirrorDevice* b, Buffer& d,
             Buffer& o1, Buffer& o2) -> Task<> {
    // Ground truth straight from the repository.
    blob::BlobClient client(*r->store, r->host_c);
    d = co_await client.read(r->base, 1, 0, kImage);
    o1 = co_await a->read(0, kImage);
    co_await r->sim.delay(5 * sim::kSecond);  // hints settle
    o2 = co_await b->read(0, kImage);
  }(&rig, m1.get(), m2.get(), direct, via_m1, via_m2));

  EXPECT_EQ(direct, rig.content);
  EXPECT_EQ(via_m1, rig.content);
  EXPECT_EQ(via_m2, rig.content);
  // m1 paid the repository exactly once per stored chunk (the Ref chunk
  // reuses the Raw chunk's decoded copy; the Zero chunk ships nothing).
  EXPECT_GT(m1->repo_bytes_fetched(), 0u);
  EXPECT_EQ(m1->peer_bytes_fetched(), 0u);
  EXPECT_EQ(m1->zero_bytes_materialized(), kChunk);
  EXPECT_GT(m1->cache_hit_bytes(), 0u);  // Ref chunk: same content key
  // m2 restored bit-exactly without any repository transfer: every stored
  // chunk arrived as a peer copy, the hole cost nothing.
  EXPECT_EQ(m2->repo_bytes_fetched(), 0u);
  EXPECT_GT(m2->peer_bytes_fetched(), 0u);
  EXPECT_EQ(m2->zero_bytes_materialized(), kChunk);
}

TEST(RestartDataPlaneTest, RankJoiningMidRestartIsBitExact) {
  ReducedRig rig;
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);

  Buffer via_m2;
  Buffer via_m3;
  std::unique_ptr<MirrorDevice> m3;
  rig.run([](ReducedRig* r, MirrorDevice* a, MirrorDevice* b,
             std::unique_ptr<MirrorDevice>* late, Buffer& o2,
             Buffer& o3) -> Task<> {
    // Two ranks restart; a third joins while their fetches are mid-flight.
    (void)co_await a->read(0, kImage / 2);
    *late = r->make_mirror(r->host_c, a->bus());
    (void)co_await b->read(0, kImage);
    o3 = co_await (*late)->read(0, kImage);
    o2 = co_await b->read(0, kImage);  // second read: local, still exact
  }(&rig, m1.get(), m2.get(), &m3, via_m2, via_m3));

  EXPECT_EQ(via_m2, rig.content);
  EXPECT_EQ(via_m3, rig.content);
  // The late joiner found every already-fetched chunk on a peer.
  EXPECT_GT(m3->peer_bytes_fetched(), 0u);
  EXPECT_LT(m3->repo_bytes_fetched(),
            m1->repo_bytes_fetched() + m2->repo_bytes_fetched() + 1);
}

TEST(RestartDataPlaneTest, NodeCacheDecodesOncePerNode) {
  ReducedRig rig;
  PrefetchBus bus(rig.sim);
  DecodedChunkCache node_cache(64 * common::kMB);
  // Two ranks on the SAME node sharing the node's decoded-chunk cache.
  auto m1 = rig.make_mirror(rig.host_a, &bus, &node_cache);
  auto m2 = rig.make_mirror(rig.host_a, &bus, &node_cache);

  Buffer via_m1;
  Buffer via_m2;
  rig.run([](ReducedRig*, MirrorDevice* a, MirrorDevice* b, Buffer& o1,
             Buffer& o2) -> Task<> {
    o1 = co_await a->read(0, kImage);
    o2 = co_await b->read(0, kImage);
  }(&rig, m1.get(), m2.get(), via_m1, via_m2));

  EXPECT_EQ(via_m1, rig.content);
  EXPECT_EQ(via_m2, rig.content);
  // The second rank materialized every stored chunk from the node cache:
  // no repository fetch, no peer copy, no second decode.
  EXPECT_EQ(m2->repo_bytes_fetched(), 0u);
  EXPECT_EQ(m2->peer_bytes_fetched(), 0u);
  EXPECT_EQ(m2->cache_hit_bytes(), kImage - kChunk);  // all but the hole
}

TEST(RestartDataPlaneTest, ZeroHolesMaterializeWithoutAnyTransfer) {
  ReducedRig rig;
  auto m1 = rig.make_mirror(rig.host_a);
  Buffer got;
  rig.run([](MirrorDevice* m, Buffer& out) -> Task<> {
    out = co_await m->read(kChunk, kChunk);  // the suppressed zero chunk
  }(m1.get(), got));
  EXPECT_EQ(got, Buffer::zeros(kChunk));
  EXPECT_EQ(m1->repo_bytes_fetched(), 0u);
  EXPECT_EQ(m1->peer_bytes_fetched(), 0u);
  EXPECT_EQ(m1->remote_bytes_fetched(), 0u);
  EXPECT_EQ(m1->zero_bytes_materialized(), kChunk);
}

// --- Deployment-level: dedup-aware restart --------------------------------

CloudConfig restart_cfg() {
  CloudConfig cfg;
  cfg.compute_nodes = 8;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  cfg.reduction.enabled = true;
  return cfg;
}

/// Restarting N instances that share most content (clone-shared base image
/// plus a fully-shared dedup'd buffer) must cost the repository far less
/// than N solo restarts: the deployment fetches each shared chunk once and
/// peers the rest, with bit-exact restored state.
TEST(RestartDataPlaneTest, PerInstanceRepoBytesShrinkWithDeploymentSize) {
  apps::SyntheticRun run;
  run.buffer_bytes = 2 * common::kMB;
  run.real_data = true;
  run.shared_fraction = 1.0;  // common input dataset: dedup-heavy
  run.do_restart = true;
  run.restart_shift = 3;

  run.instances = 1;
  Cloud solo_cloud(restart_cfg());
  const apps::RunResult solo =
      apps::run_synthetic(solo_cloud, run, apps::CkptMode::AppLevel);

  run.instances = 3;
  Cloud trio_cloud(restart_cfg());
  const apps::RunResult trio =
      apps::run_synthetic(trio_cloud, run, apps::CkptMode::AppLevel);

  ASSERT_TRUE(solo.verified);
  ASSERT_TRUE(trio.verified);
  ASSERT_GT(solo.restart.repo, 0u);
  // Peer copies replace repository traffic as the deployment grows.
  EXPECT_GT(trio.restart.peer, 0u);
  const double solo_per_inst = static_cast<double>(solo.restart.repo);
  const double trio_per_inst =
      static_cast<double>(trio.restart.repo) / 3.0;
  EXPECT_LT(trio_per_inst, solo_per_inst);
}

}  // namespace
}  // namespace blobcr::core
