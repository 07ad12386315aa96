// Checkpoint catalog + cr::Session control-plane tests: the catalog is
// repository state (a fresh Deployment/driver discovers and restarts from
// checkpoints it never took), selection refuses records that never
// completed (drain killed mid-publish), restart works from older and
// tagged lines bit-exactly, lineage is recorded, and the retention policy
// retires records and reclaims their snapshot storage without damaging any
// kept rollback target.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "blob/client.h"
#include "core/blobcr.h"
#include "flush/flush_agent.h"
#include "reduce/digest_index.h"
#include "reduce/reducer.h"
#include "redundancy/manager.h"
#include "sim/sim.h"

namespace blobcr::cr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

CloudConfig tiny_cfg(Backend backend, bool flush = false) {
  CloudConfig cfg;
  cfg.compute_nodes = 6;
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.flush.enabled = flush;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

Task<> write_state(vm::VmInstance* vm, std::uint64_t seed) {
  guestfs::SimpleFs* fs = vm->fs();
  co_await fs->write_file("/data/state.bin", Buffer::pattern(300'000, seed));
  co_await fs->sync();
}

Task<bool> state_matches(vm::VmInstance* vm, std::uint64_t seed) {
  const Buffer state = co_await vm->fs()->read_file("/data/state.bin");
  co_return state == Buffer::pattern(300'000, seed);
}

// ---------------------------------------------------------------------------
// The acceptance property: a catalog written by one Deployment is readable
// by a freshly constructed one. After destroy_all() plus teardown of every
// driver-held object (Deployment, Session — total driver loss), a fresh
// Session restores bit-exact guest state from repository-resident records
// alone.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, FreshDeploymentRestartsFromCatalogAfterDriverLoss) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool ok0 = false, ok1 = false;

  cloud.run([](Cloud* cl, bool* ok0, bool* ok1) -> Task<> {
    co_await cl->provision_base_image();
    {
      // Driver generation 1: deploy, checkpoint, then lose everything.
      auto dep = std::make_unique<Deployment>(*cl, 2);
      auto session = std::make_unique<Session>(*dep);
      co_await dep->deploy_and_boot();
      co_await write_state(&dep->vm(0), 10);
      co_await write_state(&dep->vm(1), 11);
      const CheckpointRecord rec = co_await session->checkpoint("gen1");
      EXPECT_EQ(rec.state, RecordState::Complete);
      EXPECT_GT(rec.total_bytes(), 0u);
      dep->destroy_all();
      // Total driver loss: no in-memory object survives this block.
    }

    // Driver generation 2: a fresh Deployment + Session discover the
    // catalog and restart a checkpoint they never took.
    Deployment dep2(*cl, 2);
    Session session2(dep2);
    const std::vector<CheckpointRecord> records = co_await session2.list();
    EXPECT_EQ(records.size(), 1u);
    if (records.empty()) co_return;
    EXPECT_EQ(records[0].tag, "gen1");
    const CheckpointRecord rec =
        co_await session2.restart(Selector::latest(), {.node_offset = 2});
    EXPECT_EQ(rec.tag, "gen1");
    *ok0 = co_await state_matches(&dep2.vm(0), 10);
    *ok1 = co_await state_matches(&dep2.vm(1), 11);
  }(&cloud, &ok0, &ok1));

  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
}

// The same property on a qcow baseline: the catalog lives in a PVFS file
// and the records round-trip the full qcow table state.
TEST(CrCatalogTest, QcowCatalogOnPvfsSurvivesDriverLoss) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  bool ok = false;

  cloud.run([](Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    {
      auto dep = std::make_unique<Deployment>(*cl, 1);
      auto session = std::make_unique<Session>(*dep);
      co_await dep->deploy_and_boot();
      co_await write_state(&dep->vm(0), 77);
      const CheckpointRecord rec = co_await session->checkpoint();
      EXPECT_EQ(rec.state, RecordState::Complete);
      EXPECT_FALSE(rec.snapshots.at(0).pvfs_path.empty());
      dep->destroy_all();
    }
    Deployment dep2(*cl, 1);
    Session session2(dep2);
    (void)co_await session2.restart(Selector::latest(), {.node_offset = 2});
    *ok = co_await state_matches(&dep2.vm(0), 77);
  }(&cloud, &ok));

  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// Selection semantics: older and tagged lines restart bit-exactly; lineage
// records which checkpoint the deployment descended from.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, RestartFromOlderCheckpointIsBitExact) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool old_ok = false, latest_ok = false;
  CheckpointId first_id = 0, second_id = 0, third_parent = 0;

  cloud.run([](Cloud* cl, bool* old_ok, bool* latest_ok, CheckpointId* id1,
               CheckpointId* id2, CheckpointId* parent3) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();

    co_await write_state(&dep.vm(0), 100);
    co_await write_state(&dep.vm(1), 101);
    const CheckpointRecord one = co_await session.checkpoint("one");
    *id1 = one.id;
    EXPECT_EQ(one.parent, 0u);

    co_await write_state(&dep.vm(0), 200);
    co_await write_state(&dep.vm(1), 201);
    const CheckpointRecord two = co_await session.checkpoint("two");
    *id2 = two.id;
    EXPECT_EQ(two.parent, one.id);

    // Roll back past the latest line to the OLDER checkpoint, by tag.
    dep.destroy_all();
    const CheckpointRecord back =
        co_await session.restart(Selector::by_tag("one"), {.node_offset = 2});
    EXPECT_EQ(back.id, one.id);
    *old_ok = (co_await state_matches(&dep.vm(0), 100)) &&
              (co_await state_matches(&dep.vm(1), 101));

    // A checkpoint taken after that rollback descends from "one", not from
    // the abandoned "two" line.
    const CheckpointRecord three = co_await session.checkpoint();
    *parent3 = three.parent;

    // The newer line is still selectable — forward again, by id.
    dep.destroy_all();
    (void)co_await session.restart(Selector::by_id(two.id), {.node_offset = 4});
    *latest_ok = (co_await state_matches(&dep.vm(0), 200)) &&
                 (co_await state_matches(&dep.vm(1), 201));
  }(&cloud, &old_ok, &latest_ok, &first_id, &second_id, &third_parent));

  EXPECT_TRUE(old_ok);
  EXPECT_TRUE(latest_ok);
  EXPECT_EQ(third_parent, first_id);
  EXPECT_NE(second_id, 0u);
}

// ---------------------------------------------------------------------------
// Completeness: a drain killed mid-publish (the flush crash harness's
// fail-stop-at-stage-boundary injection) leaves an Incomplete record that
// selection refuses; the previous Complete line stays the restart target.
// ---------------------------------------------------------------------------

TEST(CrCatalogTest, DrainKilledMidPublishLeavesUnselectableIncompleteRecord) {
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*flush=*/true));
  bool restored_ok = false;
  bool ckpt_threw = false, select_threw = false;
  RecordState dead_state = RecordState::Staged;

  cloud.run([](Cloud* cl, bool* restored_ok, bool* ckpt_threw,
               bool* select_threw, RecordState* dead_state) -> Task<> {
    sim::Event never(cl->simulation());  // parking spot for the kill probe
    co_await cl->provision_base_image();
    auto dep = std::make_unique<Deployment>(*cl, 1);
    auto session = std::make_unique<Session>(*dep);
    co_await dep->deploy_and_boot();

    co_await write_state(&dep->vm(0), 500);
    const CheckpointRecord good = co_await session->checkpoint("good");

    // Arm the flush crash harness: fail-stop the node's drain agent at the
    // Putting stage boundary, exactly mid-publish.
    core::MirrorDevice* m = dep->instance(0).mirror.get();
    EXPECT_NE(m->flush_agent(), nullptr);
    if (m->flush_agent() == nullptr) co_return;
    bool armed = true;
    m->flush_agent()->set_stage_probe(
        [cl, m, &armed, &never](blob::CommitStage s) -> Task<> {
          if (armed && s == blob::CommitStage::Putting) {
            armed = false;
            cl->simulation().call_in(0, [m] { m->flush_agent()->fail_stop(); });
            co_await never.wait();  // killed while suspended here
          }
        });

    co_await write_state(&dep->vm(0), 600);
    CheckpointId dead_id = 0;
    try {
      (void)co_await session->checkpoint("doomed");
    } catch (const blob::BlobError&) {
      *ckpt_threw = true;
    }
    // The doomed record exists, is Incomplete, and selection refuses it.
    for (const CheckpointRecord& rec : co_await session->list()) {
      if (rec.tag == "doomed") {
        dead_id = rec.id;
        *dead_state = rec.state;
      }
    }
    EXPECT_NE(dead_id, 0u);
    if (dead_id == 0) co_return;
    try {
      (void)co_await session->catalog().select(Selector::by_id(dead_id));
    } catch (const CrError&) {
      *select_threw = true;
    }

    // Driver loss on top of the crash: a fresh session must still pick the
    // good line and restore it bit for bit.
    dep->destroy_all();
    session.reset();
    dep = std::make_unique<Deployment>(*cl, 1);
    Session fresh(*dep);
    const CheckpointRecord rec =
        co_await fresh.restart(Selector::latest(), {.node_offset = 3});
    EXPECT_EQ(rec.id, good.id);
    *restored_ok = co_await state_matches(&dep->vm(0), 500);
  }(&cloud, &restored_ok, &ckpt_threw, &select_threw, &dead_state));

  EXPECT_TRUE(ckpt_threw) << "drain kill never surfaced";
  EXPECT_EQ(dead_state, RecordState::Incomplete);
  EXPECT_TRUE(select_threw) << "incomplete record was selectable";
  EXPECT_TRUE(restored_ok);
}

// A record left merely Staged by a dead driver (killed between stage and
// publish, so nobody marked it) is also refused, and a restart sweeps it to
// Incomplete.
TEST(CrCatalogTest, DanglingStagedRecordIsSweptOnRestart) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  RecordState swept = RecordState::Staged;
  bool ok = false;

  cloud.run([](Cloud* cl, RecordState* swept, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    auto dep = std::make_unique<Deployment>(*cl, 1);
    auto session = std::make_unique<Session>(*dep);
    co_await dep->deploy_and_boot();
    co_await write_state(&dep->vm(0), 41);
    (void)co_await session->checkpoint();
    // Stage a second line but "die" before publishing it.
    co_await write_state(&dep->vm(0), 42);
    (void)co_await dep->checkpoint_all();
    co_await session->stage_last("never-published");
    dep->destroy_all();
    session.reset();

    Deployment dep2(*cl, 1);
    Session fresh(dep2);
    (void)co_await fresh.restart(Selector::latest(), {.node_offset = 2});
    *ok = co_await state_matches(&dep2.vm(0), 41);
    for (const CheckpointRecord& rec : co_await fresh.list()) {
      if (rec.tag == "never-published") *swept = rec.state;
    }
  }(&cloud, &swept, &ok));

  EXPECT_TRUE(ok);
  EXPECT_EQ(swept, RecordState::Incomplete);
}

/// Compacts the catalog log: one GC epoch of the log's store drops the
/// versions Catalog::log_drop names. Returns the bytes reclaimed.
Task<std::uint64_t> compact_log(Cloud& cl, const Catalog& catalog) {
  const std::optional<blob::GarbageCollector::Drop> drop = catalog.log_drop();
  if (!drop.has_value()) co_return 0;
  blob::GarbageCollector gc(*cl.store_of_blob(drop->blob));
  std::vector<blob::GarbageCollector::Drop> drops{*drop};
  co_return (co_await gc.collect(std::move(drops))).reclaimed_bytes;
}

// Catalog::log_drop names the log versions that appends and in-place
// rewrites superseded, and one GC epoch reclaims the chunks only they held.
// The log that remains still lists every record for a fresh driver, and a
// second pass finds nothing.
TEST(CrCatalogTest, CompactReclaimsSupersededLogVersions) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  std::uint64_t bytes_before = 0;
  std::uint64_t bytes_after = 0;
  std::vector<CheckpointRecord> written;
  std::vector<CheckpointRecord> relisted;

  cloud.run([](Cloud* cl, std::uint64_t* first, std::uint64_t* second,
               std::uint64_t* bytes_before, std::uint64_t* bytes_after,
               std::vector<CheckpointRecord>* written,
               std::vector<CheckpointRecord>* relisted) -> Task<> {
    Catalog catalog(*cl);
    const RecordState finals[] = {RecordState::Complete, RecordState::Retired,
                                  RecordState::Incomplete,
                                  RecordState::Complete};
    for (const RecordState state : finals) {
      CheckpointRecord rec;
      rec.tag = "round-" + std::to_string(written->size());
      rec = co_await catalog.stage(std::move(rec));
      rec.state = state;
      co_await catalog.update(rec);
      written->push_back(rec);
    }
    *bytes_before = cl->repository_bytes();
    *first = co_await compact_log(*cl, catalog);
    *bytes_after = cl->repository_bytes();
    *second = co_await compact_log(*cl, catalog);

    Catalog fresh(*cl);
    *relisted = co_await fresh.list();
  }(&cloud, &first, &second, &bytes_before, &bytes_after, &written,
    &relisted));

  EXPECT_GT(first, 0u);
  EXPECT_LT(bytes_after, bytes_before);
  EXPECT_EQ(second, 0u);
  ASSERT_EQ(relisted.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    EXPECT_EQ(relisted[i].id, written[i].id);
    EXPECT_EQ(relisted[i].tag, written[i].tag);
    EXPECT_EQ(relisted[i].state, written[i].state);
  }
}

// ---------------------------------------------------------------------------
// Retention: keep-last-N retires old untagged records and reclaims their
// snapshot versions through the GC; tagged records survive and stay
// restartable bit-exactly after the reclamation around them.
// ---------------------------------------------------------------------------

TEST(CrRetentionTest, KeepLastReclaimsUntaggedAndPreservesTagged) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  std::uint64_t reclaimed = 0;
  std::size_t complete_count = 0, retired_count = 0;
  bool golden_ok = false;

  cloud.run([](Cloud* cl, std::uint64_t* reclaimed, std::size_t* n_complete,
               std::size_t* n_retired, bool* golden_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    co_await write_state(&dep.vm(0), 1);
    (void)co_await session.checkpoint("golden");
    for (std::uint64_t seed = 2; seed <= 4; ++seed) {
      co_await write_state(&dep.vm(0), seed);
      (void)co_await session.checkpoint();  // auto-retention after each
    }
    *reclaimed = session.gc_reclaimed_bytes();
    for (const CheckpointRecord& rec : co_await session.list()) {
      if (rec.state == RecordState::Complete) ++*n_complete;
      if (rec.state == RecordState::Retired) ++*n_retired;
    }

    // The tagged line survived retention AND the GC around it: restart it.
    dep.destroy_all();
    (void)co_await session.restart(Selector::by_tag("golden"),
                                   {.node_offset = 2});
    *golden_ok = co_await state_matches(&dep.vm(0), 1);
  }(&cloud, &reclaimed, &complete_count, &retired_count, &golden_ok));

  EXPECT_GT(reclaimed, 0u);
  // golden (tagged) + the newest untagged record stay Complete; the middle
  // untagged records retired.
  EXPECT_EQ(complete_count, 2u);
  EXPECT_EQ(retired_count, 2u);
  EXPECT_TRUE(golden_ok);
}

// One retention pass opens one GC epoch per store that has drops. The
// deployment spans two zones, so its images live in both zone stores, and
// the catalog log's superseded versions ride zone 0's epoch (the log's home
// store). The pass reclaims exactly what one epoch per image plus the
// catalog's own epoch reclaimed, and the latest record still restarts
// bit-exactly from cold caches.
TEST(CrRetentionTest, OnePassOpensOneEpochPerStore) {
  constexpr std::size_t kVms = 4;
  constexpr std::size_t kOffset = 4;  // nodes 4, 5 in zone 0; 6, 7 in zone 1
  CloudConfig cfg = tiny_cfg(Backend::BlobCR);
  cfg.compute_nodes = 12;
  cfg.federation.zones = 2;
  Cloud cloud(cfg);
  struct Outcome {
    std::size_t images[2] = {0, 0};
    std::size_t opens[2] = {0, 0};
    std::uint64_t reclaimed = 0;
    bool log_in_zone0 = false;
    bool log_collected = false;
    bool restored_ok = false;
  } out;

  cloud.run([](Cloud* cl, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, kVms, kOffset);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();
    for (std::uint64_t round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < kVms; ++i) {
        co_await write_state(&dep.vm(i), 40 + 10 * round + i);
      }
      (void)co_await session.checkpoint();
    }
    for (const core::InstanceSnapshot& s :
         session.last_committed()->snapshots) {
      ++out->images[cl->store_of_blob(s.image)->config().zone];
    }

    struct EpochCounter : blob::GcObserver {
      std::size_t* opens = nullptr;
      void gc_epoch(bool open) override { *opens += open ? 1 : 0; }
    };
    EpochCounter counters[2];
    for (std::uint32_t z = 0; z < 2; ++z) {
      counters[z].opens = &out->opens[z];
      cl->blob_store(z)->add_gc_observer(&counters[z]);
    }
    out->reclaimed = co_await session.apply_retention();
    for (std::uint32_t z = 0; z < 2; ++z) {
      cl->blob_store(z)->remove_gc_observer(&counters[z]);
    }

    // Every log version below the latest went in that pass.
    const std::optional<blob::GarbageCollector::Drop> log =
        session.catalog().log_drop();
    EXPECT_TRUE(log.has_value());
    if (log.has_value()) {
      blob::BlobStore* home = cl->store_of_blob(log->blob);
      out->log_in_zone0 = home == cl->blob_store(0);
      blob::BlobClient client(*home, cl->compute_node(0));
      bool collected = true;
      for (blob::VersionId v = 1; v < log->keep_from; ++v) {
        try {
          (void)co_await client.read(log->blob, v, 0, 1);
          collected = false;
        } catch (const blob::BlobError&) {
        }
      }
      out->log_collected = collected;
    }

    dep.destroy_all();
    cl->reset_chunk_caches();
    Session::RestartOptions opts;
    opts.node_offset = kOffset;
    opts.cold_caches = true;
    (void)co_await session.restart(Selector::latest(), opts);
    bool ok = true;
    for (std::size_t i = 0; i < kVms; ++i) {
      ok = ok && co_await state_matches(&dep.vm(i), 60 + i);
    }
    out->restored_ok = ok;
  }(&cloud, &out));

  EXPECT_EQ(out.images[0], 2u);
  EXPECT_EQ(out.images[1], 2u);
  EXPECT_EQ(out.opens[0], 1u);
  EXPECT_EQ(out.opens[1], 1u);
  EXPECT_TRUE(out.log_in_zone0);
  EXPECT_TRUE(out.log_collected);
  // What one epoch per image plus one for the catalog log reclaimed here
  // (3 epochs on zone 0's store, 2 on zone 1's).
  EXPECT_EQ(out.reclaimed, 4'214'784u);
  EXPECT_TRUE(out.restored_ok);
}

// The digest index observes the GC of every zone store, not only zone 0's.
// The job runs in zone 1: once retention sweeps the chunks of its first
// state, the index must stop serving them, and the same content committed
// again must be stored anew and restart bit-exactly from cold caches. An
// index deaf to zone 1's sweep would hand out dedup Refs to the swept
// chunks. Holds for the Cloud's shared index and for the isolated index of
// the deployment's one reducer (shared_index = false).
void expect_index_forgets_every_zone_sweep(bool shared_index) {
  SCOPED_TRACE(shared_index ? "shared index" : "isolated index");
  constexpr std::size_t kZone1 = 6;  // first compute node of zone 1
  CloudConfig cfg = tiny_cfg(Backend::BlobCR);
  cfg.compute_nodes = 12;
  cfg.federation.zones = 2;
  cfg.reduction.enabled = true;  // one index, observing both zone stores
  cfg.reduction.shared_index = shared_index;
  Cloud cloud(cfg);
  struct Outcome {
    bool in_zone1 = false;
    std::uint64_t reclaimed = 0;
    std::size_t served_before = 0;  // indexed leaves served before the sweep
    std::size_t swept = 0;         // indexed leaves of the first state swept
    std::size_t still_served = 0;  // ... that the index still hands out
    bool restored_ok = false;
  } out;

  cloud.run([](Cloud* cl, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1, kZone1);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    co_await write_state(&dep.vm(0), 70);
    const CheckpointRecord first = co_await session.checkpoint();
    const core::InstanceSnapshot& s = first.snapshots.at(0);
    blob::BlobStore* store = cl->store_of_blob(s.image);
    out->in_zone1 = store == cl->blob_store(1);
    blob::BlobClient client(*store, cl->compute_node(kZone1));
    const blob::BlobMeta meta = co_await client.stat(s.image);
    const std::vector<blob::BlobClient::ChunkRef> refs =
        co_await client.resolve_chunks(s.image, s.version, 0,
                                       meta.version(s.version).size);
    std::vector<blob::ChunkLocation> indexed;
    for (const blob::BlobClient::ChunkRef& ref : refs) {
      if (ref.loc.digest != 0) indexed.push_back(ref.loc);
    }

    co_await write_state(&dep.vm(0), 71);  // overwrites the state in place
    (void)co_await session.checkpoint();
    reduce::ChunkDigestIndex* index = cl->config().reduction.shared_index
                                          ? cl->shared_digest_index()
                                          : &dep.reducer()->index();
    for (const blob::ChunkLocation& loc : indexed) {
      const blob::ChunkLocation* hit =
          index->lookup(loc.digest, loc.logical(), loc.zone);
      if (hit != nullptr && hit->id == loc.id) ++out->served_before;
    }
    out->reclaimed = co_await session.apply_retention();

    for (const blob::ChunkLocation& loc : indexed) {
      bool held = false;
      for (const auto& p : store->providers()) held = held || p->has(loc.id);
      if (held) continue;
      ++out->swept;
      const blob::ChunkLocation* hit =
          index->lookup(loc.digest, loc.logical(), loc.zone);
      if (hit != nullptr && hit->id == loc.id) ++out->still_served;
    }

    co_await write_state(&dep.vm(0), 70);
    (void)co_await session.checkpoint();
    dep.destroy_all();
    cl->reset_chunk_caches();
    Session::RestartOptions opts;
    opts.node_offset = kZone1 + 1;
    opts.cold_caches = true;
    (void)co_await session.restart(Selector::latest(), opts);
    out->restored_ok = co_await state_matches(&dep.vm(0), 70);
  }(&cloud, &out));

  EXPECT_TRUE(out.in_zone1);
  EXPECT_GT(out.reclaimed, 0u);
  EXPECT_GT(out.served_before, 0u);
  EXPECT_GT(out.swept, 0u);
  EXPECT_EQ(out.still_served, 0u);
  EXPECT_TRUE(out.restored_ok);
}

TEST(CrRetentionTest, SharedIndexForgetsWhatEveryZoneSweeps) {
  expect_index_forgets_every_zone_sweep(/*shared_index=*/true);
  expect_index_forgets_every_zone_sweep(/*shared_index=*/false);
}

// The Cloud's parity tier observes the stores' GC: a retention pass that
// reclaims member chunks drops their parity groups and erases the groups'
// parity blocks from the holder caches, so no parity block is orphaned.
TEST(CrRetentionTest, ReclaimDropsTheParityGroupsOfItsMembers) {
  constexpr std::size_t kVms = 3;
  CloudConfig cfg = tiny_cfg(Backend::BlobCR, /*flush=*/true);
  cfg.redundancy.enabled = true;
  Cloud cloud(cfg);
  struct Outcome {
    std::uint64_t reclaimed = 0;
    std::uint64_t sealed = 0;
    std::uint64_t dropped_before = 0;
    std::uint64_t dropped_after = 0;
    std::uint64_t parity_blocks = 0;
    std::size_t resident_blocks = 0;
    bool restored_ok = false;
  } out;

  cloud.run([](Cloud* cl, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, kVms);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();
    for (std::uint64_t round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < kVms; ++i) {
        co_await write_state(&dep.vm(i), 80 + 10 * round + i);
      }
      (void)co_await session.checkpoint();
    }
    redundancy::Manager* mgr = cl->redundancy();
    out->sealed = mgr->stats().groups_sealed;
    out->dropped_before = mgr->stats().groups_dropped;
    out->reclaimed = co_await session.apply_retention();
    out->dropped_after = mgr->stats().groups_dropped;
    out->parity_blocks = mgr->stats().parity_blocks;
    out->resident_blocks = mgr->resident_parity_blocks();

    dep.destroy_all();
    cl->reset_chunk_caches();
    Session::RestartOptions opts;
    opts.node_offset = kVms;
    opts.cold_caches = true;
    (void)co_await session.restart(Selector::latest(), opts);
    bool ok = true;
    for (std::size_t i = 0; i < kVms; ++i) {
      ok = ok && co_await state_matches(&dep.vm(i), 90 + i);
    }
    out->restored_ok = ok;
  }(&cloud, &out));

  EXPECT_GT(out.sealed, 0u);
  EXPECT_GT(out.reclaimed, 0u);
  EXPECT_GT(out.dropped_after, out.dropped_before);
  EXPECT_EQ(out.parity_blocks, out.resident_blocks);
  EXPECT_TRUE(out.restored_ok);
}

// ---------------------------------------------------------------------------
// Elastic (N -> M) restart: the catalog's N snapshot tuples come back as M
// instances through the content-addressed plane. The acceptance property is
// bit-exactness of the UNION of device images across the remap — every
// source's state lands on exactly one new shard (boot device or attached
// volume) — plus the catalog invariants: no new record, lineage preserved,
// and the next checkpoint records M tuples.
// ---------------------------------------------------------------------------

Task<bool> attached_matches(Deployment* dep, std::size_t i, std::size_t k,
                            std::uint64_t seed) {
  const auto fs =
      co_await guestfs::SimpleFs::mount(dep->attached_volume(i, k).device());
  const Buffer state = co_await fs->read_file("/data/state.bin");
  co_return state == Buffer::pattern(300'000, seed);
}

TEST(CrElasticTest, ShrinkRestartUnionBitExactColdCaches) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool union_ok = false;
  std::size_t records_before = 0, records_after = 0;
  std::size_t post_tuples = 0;
  CheckpointId pre_id = 0, post_parent = 0;
  bool old_width_ok = false;

  cloud.run([](Cloud* cl, bool* union_ok, std::size_t* rec_before,
               std::size_t* rec_after, std::size_t* post_tuples,
               CheckpointId* pre_id, CheckpointId* post_parent,
               bool* old_width_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 4);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 10 + i);
    const CheckpointRecord pre = co_await session.checkpoint("pre-rescale");
    *pre_id = pre.id;
    *rec_before = (co_await session.list()).size();

    // Shrink 4 -> 2 on fresh nodes with cold caches: every byte comes back
    // through the repository, remapped as two contiguous shards.
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 4;
    opts.cold_caches = true;
    opts.instances = 2;
    const CheckpointRecord rec =
        co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(rec.id, pre.id);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(0), 1u);
    EXPECT_EQ(dep.attached_count(1), 1u);
    // Shards: instance 0 boots source 0 and attaches source 1; instance 1
    // boots source 2 and attaches source 3.
    *union_ok = (co_await state_matches(&dep.vm(0), 10)) &&
                (co_await attached_matches(&dep, 0, 0, 11)) &&
                (co_await state_matches(&dep.vm(1), 12)) &&
                (co_await attached_matches(&dep, 1, 0, 13));
    // The restart ledger covers attached volumes: it is the field-wise sum
    // over every boot mirror and every attached-volume mirror, and the
    // attached shards' reads above moved bytes of their own.
    core::SourceBytes boot;
    core::SourceBytes attached;
    for (std::size_t i = 0; i < dep.size(); ++i) {
      boot += dep.instance(i).mirror->source_bytes();
      for (std::size_t k = 0; k < dep.attached_count(i); ++k) {
        attached += dep.attached_volume(i, k).mirror->source_bytes();
      }
    }
    core::SourceBytes every_mirror = boot;
    every_mirror += attached;
    EXPECT_EQ(dep.source_bytes(), every_mirror);
    EXPECT_GT(attached.remote(), 0u);
    // The rescale wrote no new catalog state and kept the lineage head.
    *rec_after = (co_await session.list()).size();
    EXPECT_EQ(session.lineage_head(), pre.id);

    // The next checkpoint from the 2-instance deployment records 2 tuples,
    // descending from the pre-rescale record.
    co_await write_state(&dep.vm(0), 20);
    co_await write_state(&dep.vm(1), 21);
    const CheckpointRecord post = co_await session.checkpoint("post-rescale");
    *post_tuples = post.snapshots.size();
    *post_parent = post.parent;

    // Rolling back past the rescale restarts the pre-rescale record at its
    // own width: four instances, each with its own pre-rescale state.
    dep.destroy_all();
    Session::RestartOptions back;
    back.cold_caches = true;
    const CheckpointRecord old =
        co_await session.restart(Selector::by_tag("pre-rescale"), back);
    EXPECT_EQ(old.id, pre.id);
    EXPECT_EQ(dep.size(), 4u);
    bool ok = dep.size() == 4;
    for (std::size_t i = 0; ok && i < 4; ++i) {
      EXPECT_EQ(dep.attached_count(i), 0u);
      ok = co_await state_matches(&dep.vm(i), 10 + i);
    }
    *old_width_ok = ok;
  }(&cloud, &union_ok, &records_before, &records_after, &post_tuples,
    &pre_id, &post_parent, &old_width_ok));

  EXPECT_TRUE(union_ok);
  EXPECT_EQ(records_after, records_before);
  EXPECT_EQ(post_tuples, 2u);
  EXPECT_EQ(post_parent, pre_id);
  EXPECT_TRUE(old_width_ok);
}

TEST(CrElasticTest, GrowRestartClonesDeriveFreshImagesWarmCaches) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool union_ok = false;
  std::size_t post_tuples = 0;
  bool images_distinct = false;
  CheckpointId pre_id = 0, post_parent = 0;
  bool post_restart_ok = false;

  cloud.run([](Cloud* cl, bool* union_ok, std::size_t* post_tuples,
               bool* images_distinct, CheckpointId* pre_id,
               CheckpointId* post_parent, bool* post_restart_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 30);
    co_await write_state(&dep.vm(1), 31);
    const CheckpointRecord pre = co_await session.checkpoint("pre-rescale");
    *pre_id = pre.id;

    // Grow 2 -> 4, warm caches: sources 0 and 1 each feed two instances.
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 2;
    opts.instances = 4;
    (void)co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(dep.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(dep.attached_count(i), 0u);
    *union_ok = (co_await state_matches(&dep.vm(0), 30)) &&
                (co_await state_matches(&dep.vm(1), 30)) &&
                (co_await state_matches(&dep.vm(2), 31)) &&
                (co_await state_matches(&dep.vm(3), 31));

    // A checkpoint from the grown deployment records 4 tuples, and no two
    // instances committed into the same checkpoint image (the clones
    // derived fresh ones).
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 40 + i);
    const CheckpointRecord post = co_await session.checkpoint("post-rescale");
    *post_tuples = post.snapshots.size();
    *post_parent = post.parent;
    std::vector<blob::BlobId> images;
    for (const core::InstanceSnapshot& s : post.snapshots) {
      if (s.image != 0) images.push_back(s.image);
    }
    std::sort(images.begin(), images.end());
    *images_distinct =
        images.size() == 4 &&
        std::adjacent_find(images.begin(), images.end()) == images.end();

    // A cold restart from the record committed after the rescale brings
    // back all four grown instances with their own states.
    dep.destroy_all();
    Session::RestartOptions cold;
    cold.cold_caches = true;
    const CheckpointRecord rec =
        co_await session.restart(Selector::by_tag("post-rescale"), cold);
    EXPECT_EQ(rec.id, post.id);
    EXPECT_EQ(dep.size(), 4u);
    bool ok = dep.size() == 4;
    for (std::size_t i = 0; ok && i < 4; ++i)
      ok = co_await state_matches(&dep.vm(i), 40 + i);
    *post_restart_ok = ok;
  }(&cloud, &union_ok, &post_tuples, &images_distinct, &pre_id,
    &post_parent, &post_restart_ok));

  EXPECT_TRUE(union_ok);
  EXPECT_EQ(post_tuples, 4u);
  EXPECT_TRUE(images_distinct);
  EXPECT_EQ(post_parent, pre_id);
  EXPECT_TRUE(post_restart_ok);
}

TEST(CrElasticTest, EqualCountDegeneratesToClassicRestart) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool ok = false;

  cloud.run([](Cloud* cl, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 50);
    co_await write_state(&dep.vm(1), 51);
    (void)co_await session.checkpoint();
    dep.destroy_all();
    Session::RestartOptions opts;
    opts.node_offset = 2;
    opts.cold_caches = true;
    opts.instances = 2;  // M == N: the identity plan
    (void)co_await session.restart(Selector::latest(), opts);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(0), 0u);
    EXPECT_EQ(dep.attached_count(1), 0u);
    *ok = (co_await state_matches(&dep.vm(0), 50)) &&
          (co_await state_matches(&dep.vm(1), 51));
  }(&cloud, &ok));

  EXPECT_TRUE(ok);
}

// The same union property on the qcow2-disk baseline: attached volumes open
// the source's snapshot container straight off PVFS, and grow clones copy
// the container to a fresh file so no two instances commit into one.
TEST(CrElasticTest, QcowDiskShrinkAndGrowUnionBitExact) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  bool shrink_ok = false, grow_ok = false;
  bool paths_distinct = false;

  cloud.run([](Cloud* cl, bool* shrink_ok, bool* grow_ok,
               bool* paths_distinct) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 3);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < 3; ++i)
      co_await write_state(&dep.vm(i), 60 + i);
    (void)co_await session.checkpoint("pre");

    // Shrink 3 -> 2: instance 0 boots source 0; instance 1 boots source 1
    // and attaches source 2.
    dep.destroy_all();
    Session::RestartOptions shrink;
    shrink.node_offset = 3;
    shrink.instances = 2;
    (void)co_await session.restart(Selector::latest(), shrink);
    EXPECT_EQ(dep.size(), 2u);
    EXPECT_EQ(dep.attached_count(1), 1u);
    *shrink_ok = (co_await state_matches(&dep.vm(0), 60)) &&
                 (co_await state_matches(&dep.vm(1), 61)) &&
                 (co_await attached_matches(&dep, 1, 0, 62));

    // Grow back 3 -> 4 from the same record: source 0 feeds instances 0
    // and 1 (the clone gets a fresh container copy).
    dep.destroy_all();
    Session::RestartOptions grow;
    grow.node_offset = 0;
    grow.instances = 4;
    (void)co_await session.restart(Selector::latest(), grow);
    EXPECT_EQ(dep.size(), 4u);
    *grow_ok = (co_await state_matches(&dep.vm(0), 60)) &&
               (co_await state_matches(&dep.vm(1), 60)) &&
               (co_await state_matches(&dep.vm(2), 61)) &&
               (co_await state_matches(&dep.vm(3), 62));

    // Distinct containers: a new checkpoint from the grown deployment
    // writes 4 tuples with 4 distinct snapshot files.
    for (std::size_t i = 0; i < 4; ++i)
      co_await write_state(&dep.vm(i), 70 + i);
    const CheckpointRecord post = co_await session.checkpoint("post");
    std::vector<std::string> paths;
    for (const core::InstanceSnapshot& s : post.snapshots)
      paths.push_back(s.pvfs_path);
    std::sort(paths.begin(), paths.end());
    *paths_distinct =
        paths.size() == 4 && !paths[0].empty() &&
        std::adjacent_find(paths.begin(), paths.end()) == paths.end();
  }(&cloud, &shrink_ok, &grow_ok, &paths_distinct));

  EXPECT_TRUE(shrink_ok);
  EXPECT_TRUE(grow_ok);
  EXPECT_TRUE(paths_distinct);
}

// Growing past the compute pool trips the same placement validation the
// Deployment constructor enforces: M instances need M distinct nodes.
TEST(CrElasticTest, GrowBeyondComputePoolRefused) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));  // 6 compute nodes
  bool threw = false;

  cloud.run([](Cloud* cl, bool* threw) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 1);
    co_await write_state(&dep.vm(1), 2);
    (void)co_await session.checkpoint();
    Session::RestartOptions opts;
    opts.instances = 7;
    try {
      (void)co_await session.restart(Selector::latest(), opts);
    } catch (const std::invalid_argument&) {
      *threw = true;
    }
  }(&cloud, &threw));

  EXPECT_TRUE(threw);
}

// qcow2-full resumes full VM state (rank count baked in): rescaling is
// refused before the running deployment is torn down.
TEST(CrElasticTest, QcowFullRescaleRefusedWithoutTeardown) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Full));
  bool threw = false, still_ok = false;

  cloud.run([](Cloud* cl, bool* threw, bool* still_ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 80);
    co_await write_state(&dep.vm(1), 81);
    (void)co_await session.checkpoint();
    Session::RestartOptions opts;
    opts.instances = 1;
    try {
      (void)co_await session.restart(Selector::latest(), opts);
    } catch (const CrError&) {
      *threw = true;
    }
    // The refusal happened before teardown: the deployment still runs and
    // its state is intact.
    *still_ok = (co_await state_matches(&dep.vm(0), 80)) &&
                (co_await state_matches(&dep.vm(1), 81));
  }(&cloud, &threw, &still_ok));

  EXPECT_TRUE(threw);
  EXPECT_TRUE(still_ok);
}

// ---------------------------------------------------------------------------
// Session::restart exception safety: a boot failure mid-restart (injected
// through the deployment's restart probe, crash-harness style) must leave
// the record's tuples intact and the lineage head untouched, so a retry
// from the very same record succeeds bit-exactly.
// ---------------------------------------------------------------------------

TEST(CrElasticTest, RestartBootFailureLeavesRecordRetryable) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  bool threw = false, retried_ok = false;
  std::size_t tuples_after_failure = 0;

  cloud.run([](Cloud* cl, bool* threw, bool* retried_ok,
               std::size_t* tuples) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 2);
    Session session(dep);
    co_await dep.deploy_and_boot();
    co_await write_state(&dep.vm(0), 90);
    co_await write_state(&dep.vm(1), 91);
    const CheckpointRecord pre = co_await session.checkpoint("target");
    const CheckpointId head_before = session.lineage_head();

    dep.destroy_all();
    bool armed = true;
    dep.set_restart_probe([&armed](std::size_t) {
      if (armed) {
        armed = false;
        throw std::runtime_error("injected mid-restart boot failure");
      }
    });
    try {
      (void)co_await session.restart(Selector::latest(), {.node_offset = 2});
    } catch (const std::runtime_error&) {
      *threw = true;
    }
    EXPECT_EQ(session.lineage_head(), head_before);
    // The catalog record kept its snapshot line through the failure.
    for (const CheckpointRecord& r : co_await session.list()) {
      if (r.id == pre.id) *tuples = r.snapshots.size();
    }

    // Retry from the same record (probe now disarmed): bit-exact restore.
    (void)co_await session.restart(Selector::latest(), {.node_offset = 4});
    *retried_ok = (co_await state_matches(&dep.vm(0), 90)) &&
                  (co_await state_matches(&dep.vm(1), 91));
    EXPECT_EQ(session.lineage_head(), pre.id);
  }(&cloud, &threw, &retried_ok, &tuples_after_failure));

  EXPECT_TRUE(threw) << "injected boot failure never surfaced";
  EXPECT_EQ(tuples_after_failure, 2u);
  EXPECT_TRUE(retried_ok);
}

TEST(CrRetentionTest, QcowDiskRetentionRemovesRetiredSnapshotCopies) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  std::uint64_t reclaimed = 0;
  std::size_t files_before = 0, files_after = 0;
  bool ok = false;

  cloud.run([](Cloud* cl, std::uint64_t* reclaimed, std::size_t* before,
               std::size_t* after, bool* ok) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    Session::Config scfg;
    scfg.retention.keep_last = 1;
    scfg.auto_retention = false;  // apply explicitly below
    Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      co_await write_state(&dep.vm(0), seed);
      (void)co_await session.checkpoint();
    }
    *before = cl->pvfs()->file_count();
    *reclaimed = co_await session.apply_retention();
    *after = cl->pvfs()->file_count();

    dep.destroy_all();
    (void)co_await session.restart(Selector::latest(), {.node_offset = 2});
    *ok = co_await state_matches(&dep.vm(0), 3);
  }(&cloud, &reclaimed, &files_before, &files_after, &ok));

  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(files_after + 2, files_before);  // two retired copies removed
  EXPECT_TRUE(ok);
}

// ---------------------------------------------------------------------------
// Scavenge with reduction and parity: after a full provider outage,
// scavenge() re-encodes each recovered RLE chunk, and the re-encoding must
// reproduce the stored payload exactly — its size is the leaf's recorded
// ChunkLocation::size, and a cold restart decodes every rank state
// bit-exactly from the scavenged repository.
// ---------------------------------------------------------------------------

/// Rank state that RLE shrinks: 40-byte runs of nonzero, seed-dependent
/// byte values.
Buffer run_state(std::uint64_t seed) {
  std::vector<std::byte> bytes(300'000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::byte>(1 + (i / 40 + seed * 7) % 255);
  }
  return Buffer::real(std::move(bytes));
}

struct ScavengeOutcome {
  ScavengeReport report;
  std::size_t payload_chunks = 0;
  std::size_t rle_chunks = 0;
  std::uint64_t payload_bytes = 0;  // sum of ChunkLocation::size
  bool restored_ok = false;
};

TEST(CrScavengeTest, RleChunksScavengeToTheirRecordedSize) {
  constexpr std::size_t kVms = 3;
  CloudConfig cfg = tiny_cfg(Backend::BlobCR, /*flush=*/true);
  cfg.replication = 1;
  cfg.reduction.enabled = true;
  cfg.reduction.compression = true;
  cfg.redundancy.enabled = true;
  Cloud cloud(cfg);
  ScavengeOutcome out;

  cloud.run([](Cloud* cl, ScavengeOutcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, kVms);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < kVms; ++i) {
      // Reading the whole disk caches every base-image chunk on a compute
      // node, so the outage leaves no chunk without a surviving copy.
      (void)co_await dep.vm(i).disk().read(0, cl->config().os.image_size);
      co_await dep.vm(i).fs()->write_file("/data/state.bin", run_state(i));
      co_await dep.vm(i).fs()->sync();
    }
    const CheckpointRecord rec = co_await session.checkpoint("runs");
    EXPECT_EQ(rec.state, RecordState::Complete);

    // The chunks scavenge must re-create: every payload-bearing leaf of the
    // record, once per ChunkId.
    blob::BlobClient client(*cl->blob_store(), cl->compute_node(0));
    std::map<blob::ChunkId, blob::ChunkLocation> payload;
    for (const core::InstanceSnapshot& s : rec.snapshots) {
      const blob::BlobMeta meta = co_await client.stat(s.image);
      const auto refs = co_await client.resolve_chunks(
          s.image, s.version, 0, meta.version(s.version).size);
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        if (ref.loc.id == 0 || ref.loc.encoding == blob::ChunkEncoding::Zero)
          continue;
        payload.emplace(ref.loc.id, ref.loc);
      }
    }
    for (const auto& [id, loc] : payload) {
      out->payload_bytes += loc.size;
      if (loc.encoding == blob::ChunkEncoding::Rle) ++out->rle_chunks;
    }
    out->payload_chunks = payload.size();

    for (const auto& provider : cl->blob_store()->providers())
      provider->fail();
    out->report = co_await session.scavenge();

    // Cold restart on fresh nodes: every read comes out of the scavenged
    // repository.
    cl->reset_chunk_caches();
    Session::RestartOptions opts;
    opts.node_offset = kVms;
    opts.cold_caches = true;
    (void)co_await session.restart(Selector::latest(), opts);
    bool ok = true;
    for (std::size_t i = 0; i < kVms; ++i) {
      ok = ok && (co_await dep.vm(i).fs()->read_file("/data/state.bin")) ==
                     run_state(i);
    }
    out->restored_ok = ok;
  }(&cloud, &out));

  EXPECT_TRUE(out.report.complete());
  EXPECT_GT(out.rle_chunks, 0u);
  EXPECT_EQ(out.report.chunks_restored, out.payload_chunks);
  EXPECT_EQ(out.report.bytes_restored, out.payload_bytes);
  EXPECT_TRUE(out.restored_ok);
}

// ---------------------------------------------------------------------------
// Scavenge on a two-zone cloud: the job runs in zone 1, so its images and
// their chunks live in zone 1's store. After zone 1's providers die,
// scavenge() resolves every image through the store that owns it and
// restores every chunk into the store of its zone, and a cold restart reads
// every state back bit-exactly.
// ---------------------------------------------------------------------------

TEST(CrScavengeTest, RebuildsTheZoneThatOwnsEachImage) {
  constexpr std::size_t kVms = 3;
  constexpr std::size_t kZone1 = 6;  // first compute node of zone 1
  CloudConfig cfg = tiny_cfg(Backend::BlobCR, /*flush=*/true);
  cfg.compute_nodes = 12;
  cfg.federation.zones = 2;
  cfg.redundancy.enabled = true;
  Cloud cloud(cfg);
  ScavengeOutcome out;

  cloud.run([](Cloud* cl, ScavengeOutcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, kVms, kZone1);
    Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < kVms; ++i) {
      // Cache every base-image chunk on a compute node, as above.
      (void)co_await dep.vm(i).disk().read(0, cl->config().os.image_size);
      co_await write_state(&dep.vm(i), 30 + i);
    }
    const CheckpointRecord rec = co_await session.checkpoint("zone1");
    EXPECT_EQ(rec.state, RecordState::Complete);

    std::map<blob::ChunkId, blob::ChunkLocation> payload;
    for (const core::InstanceSnapshot& s : rec.snapshots) {
      blob::BlobStore* owner = cl->store_of_blob(s.image);
      EXPECT_EQ(owner, cl->blob_store(1));
      blob::BlobClient client(*owner, cl->compute_node(kZone1));
      const blob::BlobMeta meta = co_await client.stat(s.image);
      const auto refs = co_await client.resolve_chunks(
          s.image, s.version, 0, meta.version(s.version).size);
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        if (ref.loc.id == 0 || ref.loc.encoding == blob::ChunkEncoding::Zero)
          continue;
        EXPECT_EQ(ref.loc.zone, 1u);
        payload.emplace(ref.loc.id, ref.loc);
      }
    }
    for (const auto& [id, loc] : payload) out->payload_bytes += loc.size;
    out->payload_chunks = payload.size();

    for (const auto& provider : cl->blob_store(1)->providers())
      provider->fail();
    out->report = co_await session.scavenge();

    cl->reset_chunk_caches();
    Session::RestartOptions opts;
    opts.node_offset = kZone1 + kVms;
    opts.cold_caches = true;
    (void)co_await session.restart(Selector::latest(), opts);
    bool ok = true;
    for (std::size_t i = 0; i < kVms; ++i) {
      ok = ok && co_await state_matches(&dep.vm(i), 30 + i);
    }
    out->restored_ok = ok;
  }(&cloud, &out));

  EXPECT_TRUE(out.report.complete());
  EXPECT_GT(out.payload_chunks, 0u);
  EXPECT_EQ(out.report.chunks_restored, out.payload_chunks);
  EXPECT_EQ(out.report.bytes_restored, out.payload_bytes);
  EXPECT_TRUE(out.restored_ok);
}

}  // namespace
}  // namespace blobcr::cr
