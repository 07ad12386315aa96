// Tests for the mirroring module: lazy fetch, local COW, CLONE/COMMIT
// semantics, partial-chunk copy-up, adaptive prefetching, and the
// checkpointing proxy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "core/mirror_device.h"
#include "federation/federation.h"
#include "core/proxy.h"
#include "reduce/reducer.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::core {
namespace {

using common::Buffer;
using sim::Simulation;
using sim::Task;
using sim::Time;

constexpr std::uint64_t kChunk = 4096;
constexpr std::uint64_t kImage = 64 * kChunk;

struct TestRig {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  /// 1-zone repository fabric over `store` (what mirrors fetch through).
  std::unique_ptr<federation::Fabric> repo;
  blob::BlobId base = 0;
  // Host nodes for mirrors are the last two nodes.
  net::NodeId host_a = 0;
  net::NodeId host_b = 0;
  /// One decoded-chunk cache per mirror built here, as a standalone host
  /// has; the rig outlives every bus and parity tier that indexes them.
  std::vector<std::unique_ptr<DecodedChunkCache>> caches;

  TestRig() {
    const std::size_t n_data = 4;
    const std::size_t total = 2 + 2 + n_data + 2;  // mgr,pm,meta*2,data,hosts
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
    for (std::size_t i = 0; i < n_data + 2; ++i) {
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
    host_a = static_cast<net::NodeId>(total - 2);
    host_b = static_cast<net::NodeId>(total - 1);
  }

  /// Writes a base image blob with deterministic content.
  void make_base() {
    run([](TestRig* rig) -> Task<> {
      blob::BlobClient client(*rig->store, rig->host_a);
      rig->base = co_await client.create(kChunk);
      co_await client.write(rig->base, 0, Buffer::pattern(kImage, 42));
    }(this));
  }

  DecodedChunkCache& fresh_cache() {
    caches.push_back(
        std::make_unique<DecodedChunkCache>(512 * common::kMiB));
    return *caches.back();
  }

  std::unique_ptr<MirrorDevice> make_mirror(net::NodeId host,
                                            PrefetchBus* bus = nullptr) {
    MirrorDevice::Config cfg;
    cfg.capacity = kImage;
    return std::make_unique<MirrorDevice>(
        *repo, host, *disks[4 + (host == host_a ? 0 : 1)], 99, base, 1, cfg,
        fresh_cache(), bus);
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

TEST(MirrorTest, LazyFetchOnFirstRead) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  Buffer got;
  rig.run([](MirrorDevice* m, Buffer& out) -> Task<> {
    out = co_await m->read(kChunk, 2 * kChunk);
  }(mirror.get(), got));
  EXPECT_EQ(got, Buffer::pattern(kImage, 42).slice(kChunk, 2 * kChunk));
  EXPECT_EQ(mirror->remote_bytes_fetched(), 2 * kChunk);
}

TEST(MirrorTest, SecondReadServedLocally) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  rig.run([](MirrorDevice* m) -> Task<> {
    (void)co_await m->read(0, kChunk);
    (void)co_await m->read(0, kChunk);
  }(mirror.get()));
  EXPECT_EQ(mirror->remote_bytes_fetched(), kChunk);
}

TEST(MirrorTest, WritesAreLocalAndDirty) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  rig.run([](MirrorDevice* m) -> Task<> {
    co_await m->write(0, Buffer::pattern(100, 7));
  }(mirror.get()));
  EXPECT_EQ(mirror->dirty_bytes(), 100u);
  EXPECT_EQ(mirror->remote_bytes_fetched(), 0u);
}

TEST(MirrorTest, ReadSeesLocalWriteOverBacking) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  Buffer got;
  rig.run([](MirrorDevice* m, Buffer& out) -> Task<> {
    co_await m->write(10, Buffer::pattern(100, 7));
    out = co_await m->read(0, kChunk);
  }(mirror.get(), got));
  Buffer expect = Buffer::pattern(kImage, 42).slice(0, kChunk);
  expect.overwrite(10, Buffer::pattern(100, 7));
  EXPECT_EQ(got, expect);
}

TEST(MirrorTest, CommitCreatesSnapshotWithChunkRounding) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  blob::VersionId v = 0;
  rig.run([](MirrorDevice* m, blob::VersionId& out) -> Task<> {
    co_await m->write(10, Buffer::pattern(100, 7));  // partial chunk
    out = co_await m->ioctl_commit();
  }(mirror.get(), v));
  // Clone happened implicitly; the commit shipped one whole chunk.
  EXPECT_NE(mirror->checkpoint_blob(), 0u);
  EXPECT_NE(mirror->checkpoint_blob(), rig.base);
  EXPECT_EQ(v, 2u);  // version 1 = the clone, 2 = first commit
  EXPECT_EQ(mirror->last_commit_payload(), kChunk);
  EXPECT_EQ(mirror->dirty_bytes(), 0u);
}

TEST(MirrorTest, PartialChunkCommitCopiesUpFromBacking) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  Buffer snapshot_content;
  rig.run([](TestRig* r, MirrorDevice* m, Buffer& out) -> Task<> {
    co_await m->write(10, Buffer::pattern(100, 7));
    const blob::VersionId v = co_await m->ioctl_commit();
    // Read the committed chunk back from the repository directly.
    blob::BlobClient client(*r->store, r->host_b);
    out = co_await client.read(m->checkpoint_blob(), v, 0, kChunk);
  }(&rig, mirror.get(), snapshot_content));
  Buffer expect = Buffer::pattern(kImage, 42).slice(0, kChunk);
  expect.overwrite(10, Buffer::pattern(100, 7));
  EXPECT_EQ(snapshot_content, expect);
}

TEST(MirrorTest, SecondCommitShipsOnlyNewDelta) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  std::uint64_t payload1 = 0;
  std::uint64_t payload2 = 0;
  rig.run([](MirrorDevice* m, std::uint64_t& p1, std::uint64_t& p2)
               -> Task<> {
    co_await m->write(0, Buffer::pattern(8 * kChunk, 1));
    co_await m->ioctl_commit();
    p1 = m->last_commit_payload();
    co_await m->write(2 * kChunk, Buffer::pattern(kChunk, 2));
    co_await m->ioctl_commit();
    p2 = m->last_commit_payload();
  }(mirror.get(), payload1, payload2));
  EXPECT_EQ(payload1, 8 * kChunk);
  EXPECT_EQ(payload2, kChunk);
}

TEST(MirrorTest, CommitWithNoDirtyDataKeepsLastVersion) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  blob::VersionId v1 = 0;
  blob::VersionId v2 = 0;
  rig.run([](MirrorDevice* m, blob::VersionId& a, blob::VersionId& b)
               -> Task<> {
    co_await m->write(0, Buffer::pattern(kChunk, 1));
    a = co_await m->ioctl_commit();
    b = co_await m->ioctl_commit();  // nothing new
  }(mirror.get(), v1, v2));
  EXPECT_EQ(v1, v2);
}

TEST(MirrorTest, OldSnapshotSurvivesNewCommits) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  Buffer old_view;
  rig.run([](TestRig* r, MirrorDevice* m, Buffer& out) -> Task<> {
    co_await m->write(0, Buffer::pattern(kChunk, 1));
    const blob::VersionId v1 = co_await m->ioctl_commit();
    co_await m->write(0, Buffer::pattern(kChunk, 2));
    (void)co_await m->ioctl_commit();
    blob::BlobClient client(*r->store, r->host_b);
    out = co_await client.read(m->checkpoint_blob(), v1, 0, kChunk);
  }(&rig, mirror.get(), old_view));
  EXPECT_EQ(old_view, Buffer::pattern(kChunk, 1));
}

TEST(MirrorTest, RestartedMirrorCommitsIntoBackingImage) {
  TestRig rig;
  rig.make_base();
  auto first = rig.make_mirror(rig.host_a);
  blob::BlobId image = 0;
  blob::VersionId snap = 0;
  rig.run([](MirrorDevice* m, blob::BlobId& img, blob::VersionId& v)
               -> Task<> {
    co_await m->write(0, Buffer::pattern(kChunk, 1));
    v = co_await m->ioctl_commit();
    img = m->checkpoint_blob();
  }(first.get(), image, snap));

  // Restart: a new mirror backed by the snapshot, committing into it.
  MirrorDevice::Config mcfg;
  mcfg.capacity = kImage;
  MirrorDevice restarted(*rig.repo, rig.host_b, *rig.disks[5], 98, image,
                         snap, mcfg, rig.fresh_cache());
  restarted.set_checkpoint_blob(image, snap);
  blob::VersionId v2 = 0;
  Buffer view;
  rig.run([](TestRig*, MirrorDevice* m, blob::VersionId& v, Buffer& out)
              -> Task<> {
    const Buffer state = co_await m->read(0, kChunk);  // restored content
    out = state;
    co_await m->write(kChunk, Buffer::pattern(kChunk, 3));
    v = co_await m->ioctl_commit();
  }(&rig, &restarted, v2, view));
  EXPECT_EQ(view, Buffer::pattern(kChunk, 1));
  EXPECT_EQ(restarted.checkpoint_blob(), image);
  EXPECT_GT(v2, snap);
}

TEST(MirrorTest, PrefetchBusPushesToPeers) {
  TestRig rig;
  rig.make_base();
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);
  EXPECT_EQ(bus.attached(), 2u);
  rig.run([](TestRig* r, MirrorDevice* a) -> Task<> {
    (void)co_await a->read(0, 4 * kChunk);
    // Give the bus + background fetches time to complete.
    co_await r->sim.delay(5 * sim::kSecond);
  }(&rig, m1.get()));
  // m2 never read anything, yet the hinted range arrived ahead of demand.
  EXPECT_GE(m2->locally_available_bytes(), 4 * kChunk);
  EXPECT_GE(m2->remote_bytes_fetched(), 4 * kChunk);
}

TEST(MirrorTest, PrefetchBusAnnouncesOnlyUncoveredGaps) {
  TestRig rig;
  rig.make_base();
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);
  rig.run([](TestRig* r, MirrorDevice* a) -> Task<> {
    // First demand fetch announces [0, 4) chunks.
    (void)co_await a->read(0, 4 * kChunk);
    co_await r->sim.delay(5 * sim::kSecond);
    // Overlapping read [2, 6): only the uncovered tail [4, 6) may be
    // announced — the overlap must not be re-broadcast.
    (void)co_await a->read(2 * kChunk, 4 * kChunk);
    co_await r->sim.delay(5 * sim::kSecond);
  }(&rig, m1.get()));
  EXPECT_EQ(bus.hinted_bytes(), 6 * kChunk);
  // Fully-covered announcements stay suppressed entirely.
  const std::uint64_t hints = bus.hints_sent();
  rig.run([](TestRig* r, MirrorDevice* a) -> Task<> {
    (void)co_await a->read(kChunk, 2 * kChunk);
    co_await r->sim.delay(sim::kSecond);
  }(&rig, m1.get()));
  EXPECT_EQ(bus.hints_sent(), hints);
  EXPECT_EQ(m2->remote_bytes_fetched(), 6 * kChunk);
}

TEST(MirrorTest, ReducedCommitShipsLessAndRoundTrips) {
  TestRig rig;
  rig.make_base();
  reduce::ReductionConfig rcfg;
  rcfg.enabled = true;
  reduce::Reducer reducer({rig.store.get()}, rcfg);
  auto m1 = rig.make_mirror(rig.host_a);
  MirrorDevice::Config mcfg;
  mcfg.capacity = kImage;
  MirrorDevice m2(*rig.repo, rig.host_b, *rig.disks[5], 97, rig.base, 1,
                  mcfg, rig.fresh_cache(), nullptr, &reducer);

  // Rank 1 (unreduced) establishes nothing in the index; rank 2 commits a
  // mix of duplicate-able, zero and unique chunks through the reducer.
  Buffer payload = Buffer::pattern(2 * kChunk, 50);  // duplicated below
  payload.append(Buffer::zeros(2 * kChunk));
  payload.append(Buffer::pattern(2 * kChunk, 50));   // dup of chunks 0-1
  payload.append(Buffer::pattern(kChunk, 51));       // unique
  blob::VersionId v = 0;
  Buffer back;
  rig.run([](TestRig* r, MirrorDevice* m, const Buffer* payload,
             blob::VersionId& v_out, Buffer& back) -> Task<> {
    co_await m->write(0, *payload);
    v_out = co_await m->ioctl_commit();
    // Read back through a fresh client straight from the repository.
    blob::BlobClient client(*r->store, r->host_a);
    back = co_await client.read(m->checkpoint_blob(), v_out, 0,
                                payload->size());
  }(&rig, &m2, &payload, v, back));
  EXPECT_EQ(back, payload);
  EXPECT_EQ(m2.last_commit_payload(), 7 * kChunk);
  // Shipped: 2 unique pattern chunks + 1 unique chunk; zeros and the
  // duplicate pair stayed home.
  EXPECT_EQ(reducer.stats().shipped_bytes, 3 * kChunk);
  EXPECT_EQ(reducer.stats().zero_chunks, 2u);
  EXPECT_EQ(reducer.stats().dedup_hits, 2u);
}

// A read through a mirror whose backing version a GC epoch tombstoned
// fails with a BlobError that names the cause, not a bare fetch failure.
TEST(MirrorTest, FetchFromCollectedVersionNamesTheCause) {
  TestRig rig;
  rig.make_base();
  rig.run([](TestRig* r) -> Task<> {
    blob::BlobClient client(*r->store, r->host_a);
    (void)co_await client.write(r->base, 0, Buffer::pattern(kImage, 43));
    blob::GarbageCollector gc(*r->store);
    std::vector<blob::GarbageCollector::Drop> drops;
    drops.push_back({r->base, 2});
    (void)co_await gc.collect(std::move(drops));
  }(&rig));
  auto m = rig.make_mirror(rig.host_a);  // backed by the collected version 1
  std::string what;
  rig.run([](MirrorDevice* m, std::string* what) -> Task<> {
    try {
      (void)co_await m->read(0, kChunk);
    } catch (const blob::BlobError& e) {
      *what = e.what();
    }
  }(m.get(), &what));
  EXPECT_NE(what.find("mirror fetch failed"), std::string::npos) << what;
  EXPECT_NE(what.find("garbage-collected"), std::string::npos) << what;
}

TEST(MirrorTest, PrefetchedReadIsFasterThanCold) {
  TestRig rig;
  rig.make_base();
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);
  sim::Duration cold = 0;
  sim::Duration warm = 0;
  rig.run([](TestRig* r, MirrorDevice* a, MirrorDevice* b,
             sim::Duration& cold_out, sim::Duration& warm_out) -> Task<> {
    const Time t0 = r->sim.now();
    (void)co_await a->read(0, 8 * kChunk);  // cold: remote fetch
    cold_out = r->sim.now() - t0;
    co_await r->sim.delay(5 * sim::kSecond);  // prefetch lands on b
    const Time t1 = r->sim.now();
    (void)co_await b->read(0, 8 * kChunk);  // warm: local
    warm_out = r->sim.now() - t1;
  }(&rig, m1.get(), m2.get(), cold, warm));
  EXPECT_LT(warm, cold);
}

// Hinted ranges queue on one FIFO per mirror: a storm of hints runs at most
// kPrefetchStreams workers, they drain every range, and a hint for a range
// that is already local starts nothing.
TEST(MirrorTest, HintStormRunsAtMostTwoPrefetchWorkers) {
  TestRig rig;
  rig.make_base();
  auto m = rig.make_mirror(rig.host_a);
  std::size_t live_after_storm = 0;
  rig.run([](TestRig* r, MirrorDevice* m, std::size_t& live) -> Task<> {
    for (std::uint64_t off = 0; off < kImage; off += kChunk) {
      m->hint(off, kChunk);
    }
    live = r->sim.live_process_count();
    co_return;
  }(&rig, m.get(), live_after_storm));
  // The test process plus the workers.
  EXPECT_LE(live_after_storm, 1 + MirrorDevice::kPrefetchStreams);
  EXPECT_EQ(m->locally_available_bytes(), kImage);
  EXPECT_EQ(m->prefetch_queued(), 0u);

  std::size_t live_after_local_hint = 0;
  const std::uint64_t events = rig.sim.events_processed();
  rig.run([](TestRig* r, MirrorDevice* m, std::size_t& live) -> Task<> {
    m->hint(0, kChunk);
    live = r->sim.live_process_count();
    co_return;
  }(&rig, m.get(), live_after_local_hint));
  EXPECT_EQ(live_after_local_hint, 1u);
  EXPECT_EQ(rig.sim.events_processed(), events + 1);  // the test's start
  EXPECT_EQ(m->prefetch_queued(), 0u);
}

// One timer per announce delivers the hint to every other mirror, 300 µs
// later. A mirror destroyed in between is skipped without being touched,
// and the survivors still prefetch.
TEST(MirrorTest, HintSkipsAPeerDestroyedBeforeDelivery) {
  TestRig rig;
  rig.make_base();
  PrefetchBus bus(rig.sim);
  auto m1 = rig.make_mirror(rig.host_a, &bus);
  auto m2 = rig.make_mirror(rig.host_b, &bus);
  auto m3 = rig.make_mirror(rig.host_b, &bus);
  auto reader = rig.sim.spawn("reader", [](MirrorDevice* a) -> Task<> {
    (void)co_await a->read(0, kChunk);
  }(m1.get()));
  // Step 10 µs at a time until m1's demand fetch announces the chunk, then
  // destroy m3 well inside the hint latency.
  while (bus.hints_sent() == 0) {
    ASSERT_TRUE(rig.sim.run_until(rig.sim.now() + 10 * sim::kMicrosecond));
  }
  EXPECT_EQ(m2->prefetch_queued() + m2->locally_available_bytes(), 0u);
  m3.reset();
  EXPECT_EQ(bus.attached(), 2u);
  rig.sim.run();
  ASSERT_FALSE(reader->error());
  EXPECT_EQ(m2->locally_available_bytes(), kChunk);
  EXPECT_EQ(m2->remote_bytes_fetched(), kChunk);
}

TEST(ProxyTest, PausesVmDuringSnapshot) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  vm::VmConfig vcfg;
  vcfg.name = "vm";
  vm::VmInstance vm(rig.sim, rig.host_a, *mirror, vcfg);
  CheckpointProxy proxy(rig.sim, *rig.fabric, rig.host_a);
  std::vector<Time> guest_progress;
  vm.start_guest("worker", [&](vm::GuestProcess& gp) -> Task<> {
    for (int i = 0; i < 200; ++i) {
      co_await gp.compute(10 * sim::kMillisecond);
      guest_progress.push_back(gp.vm().simulation().now());
    }
  });
  CheckpointProxy::Result result;
  rig.run([](TestRig*, CheckpointProxy* p, vm::VmInstance* v,
             MirrorDevice* m, CheckpointProxy::Result& out) -> Task<> {
    co_await m->write(0, Buffer::pattern(4 * kChunk, 9));
    out = co_await p->request_checkpoint(*v, *m);
  }(&rig, &proxy, &vm, mirror.get(), result));
  EXPECT_GT(result.vm_downtime, 0);
  EXPECT_EQ(result.payload_bytes, 4 * kChunk);
  EXPECT_NE(result.image, 0u);
  EXPECT_FALSE(vm.paused());
  EXPECT_EQ(proxy.requests_served(), 1u);
}

TEST(ProxyTest, RejectsForeignVm) {
  TestRig rig;
  rig.make_base();
  auto mirror = rig.make_mirror(rig.host_a);
  vm::VmConfig vcfg;
  vm::VmInstance vm(rig.sim, rig.host_a, *mirror, vcfg);
  CheckpointProxy proxy(rig.sim, *rig.fabric, rig.host_b);  // other node
  bool threw = false;
  rig.run([](CheckpointProxy* p, vm::VmInstance* v, MirrorDevice* m,
             bool& out) -> Task<> {
    try {
      (void)co_await p->request_checkpoint(*v, *m);
    } catch (const std::runtime_error&) {
      out = true;
    }
    co_return;
  }(&proxy, &vm, mirror.get(), threw));
  EXPECT_TRUE(threw);
}

}  // namespace
}  // namespace blobcr::core
