// Asynchronous commit pipeline tests: the FlushAgent's provisional-version
// contract, publish order and backpressure, and a randomized
// crash-consistency harness — seeded fail-stop injection at every pipeline
// stage boundary (staged / reducing / putting / pre-publish / post-publish /
// parity-encode) followed by a bit-exact restore of the last published
// version.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.h"
#include "blob/gc.h"
#include "blob/store.h"
#include "common/rng.h"
#include "apps/scenarios.h"
#include "core/blobcr.h"
#include "core/mirror_device.h"
#include "federation/federation.h"
#include "flush/flush_agent.h"
#include "ft/failure.h"
#include "ft/runner.h"
#include "redundancy/manager.h"
#include "reduce/reducer.h"
#include "sim/sim.h"

namespace blobcr {
namespace {

using common::Buffer;
using common::Rng;
using sim::Simulation;
using sim::Task;

constexpr std::uint64_t kChunk = 4096;
constexpr std::uint64_t kImage = 32 * kChunk;

/// Small in-memory cluster + backing blob, one per harness iteration.
struct FlushRig {
  Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  /// 1-zone repository fabric over `store` (what mirrors fetch through).
  std::unique_ptr<federation::Fabric> repo;
  std::unique_ptr<reduce::Reducer> reducer;
  blob::BlobId base = 0;
  net::NodeId host = 0;
  sim::Event never;  // parking spot for kill-probes (never set)
  /// One decoded-chunk cache per mirror built here, as a standalone host
  /// has; the rig outlives every bus and parity tier that indexes them.
  std::vector<std::unique_ptr<core::DecodedChunkCache>> caches;

  explicit FlushRig(bool with_reduction = false, int replication = 1)
      : never(sim) {
    const std::size_t n_data = 3;
    const std::size_t total = 2 + 2 + n_data + 1;
    net::Fabric::Config fcfg;
    fcfg.node_count = total;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 50 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);
    blob::BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    cfg.metadata_nodes = {2, 3};
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 1e9;
    dcfg.position_cost = 100 * sim::kMicrosecond;
    for (std::size_t i = 0; i < n_data + 1; ++i) {
      disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
    }
    for (std::size_t i = 0; i < n_data; ++i) {
      cfg.data_providers.push_back(
          {static_cast<net::NodeId>(4 + i), disks[i].get(), 1});
    }
    cfg.default_chunk_size = kChunk;
    cfg.tree_depth = 10;
    cfg.replication = replication;
    store = std::make_unique<blob::BlobStore>(sim, *fabric, cfg);
    repo = std::make_unique<federation::Fabric>(sim, *fabric,
                                                federation::FederationConfig{});
    repo->add_zone(store.get(), 0, static_cast<net::NodeId>(total));
    host = static_cast<net::NodeId>(total - 1);
    if (with_reduction) {
      reduce::ReductionConfig rcfg;
      rcfg.enabled = true;
      reducer = std::make_unique<reduce::Reducer>(*store, rcfg);
    }
    run([](FlushRig* rig) -> Task<> {
      blob::BlobClient client(*rig->store, rig->host);
      rig->base = co_await client.create(kChunk);
      co_await client.write(rig->base, 0, Buffer::pattern(kImage, 42));
    }(this));
  }

  core::DecodedChunkCache& fresh_cache() {
    caches.push_back(
        std::make_unique<core::DecodedChunkCache>(512 * common::kMiB));
    return *caches.back();
  }

  void run(Task<> t) {
    auto p = sim.spawn("test", std::move(t));
    sim.run();
    if (p->error()) std::rethrow_exception(p->error());
  }
};

core::MirrorDevice::Config mirror_config(std::size_t max_pending = 2) {
  core::MirrorDevice::Config mcfg;
  mcfg.capacity = kImage;
  mcfg.flush.enabled = true;
  mcfg.flush.max_pending = max_pending;
  return mcfg;
}

// ---------------------------------------------------------------------------
// Contract basics: provisional id, publish order, wait_drained.
// ---------------------------------------------------------------------------

TEST(FlushAgentTest, ProvisionalVersionPublishesAndReadsBack) {
  FlushRig rig;
  core::MirrorDevice m(*rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1,
                       mirror_config(), rig.fresh_cache());
  rig.run([](FlushRig* rig, core::MirrorDevice* m) -> Task<> {
    co_await m->write(0, Buffer::pattern(3 * kChunk, 7));
    const blob::BlobId ckpt = co_await m->ioctl_clone();
    const blob::VersionId v = co_await m->ioctl_commit();
    EXPECT_EQ(v, 2u);  // clone is version 1, first commit reserves 2

    // Provisional: not yet readable, invisible to latest().
    blob::BlobClient probe(*rig->store, rig->host);
    const blob::BlobMeta meta = co_await probe.stat(ckpt);
    EXPECT_EQ(meta.latest(), 1u);
    EXPECT_TRUE(meta.version(v).pending);

    co_await m->wait_drained();
    const blob::BlobMeta after = co_await probe.stat(ckpt);
    EXPECT_EQ(after.latest(), v);
    const Buffer got = co_await probe.read(ckpt, v, 0, 3 * kChunk);
    EXPECT_TRUE(got == Buffer::pattern(3 * kChunk, 7));
    EXPECT_GT(m->flush_agent()->stats().drains_completed, 0u);
  }(&rig, &m));
}

TEST(FlushAgentTest, QueuedCommitsPublishInSubmissionOrder) {
  FlushRig rig;
  core::MirrorDevice m(*rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1,
                       mirror_config(4), rig.fresh_cache());
  rig.run([](FlushRig* rig, core::MirrorDevice* m) -> Task<> {
    const blob::BlobId ckpt = co_await m->ioctl_clone();
    std::vector<blob::VersionId> ids;
    for (int i = 0; i < 3; ++i) {
      co_await m->write(static_cast<std::uint64_t>(i) * kChunk,
                        Buffer::pattern(kChunk, 100 + i));
      ids.push_back(co_await m->ioctl_commit());
    }
    EXPECT_EQ(ids[0] + 1, ids[1]);
    EXPECT_EQ(ids[1] + 1, ids[2]);
    co_await m->wait_drained();
    blob::BlobClient probe(*rig->store, rig->host);
    const blob::BlobMeta meta = co_await probe.stat(ckpt);
    EXPECT_EQ(meta.latest(), ids[2]);
    // Each version captured exactly its prefix of writes: version ids[i]
    // holds writes 0..i, and the chunk after them is still base content.
    for (int i = 0; i < 3; ++i) {
      for (int k = 0; k <= i; ++k) {
        const Buffer got = co_await probe.read(
            ckpt, ids[i], static_cast<std::uint64_t>(k) * kChunk, kChunk);
        EXPECT_TRUE(got == Buffer::pattern(kChunk, 100 + k))
            << "version " << ids[i] << " chunk " << k;
      }
      if (i < 2) {
        const std::uint64_t next = static_cast<std::uint64_t>(i + 1) * kChunk;
        const Buffer got = co_await probe.read(ckpt, ids[i], next, kChunk);
        EXPECT_TRUE(got == Buffer::pattern(kImage, 42).slice(next, kChunk))
            << "version " << ids[i] << " leaked a later write";
      }
    }
  }(&rig, &m));
}

TEST(FlushAgentTest, BackpressureBoundsStagedGenerations) {
  FlushRig rig;
  core::MirrorDevice m(*rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1,
                       mirror_config(1), rig.fresh_cache());
  rig.run([](FlushRig* rig, core::MirrorDevice* m) -> Task<> {
    (void)co_await m->ioctl_clone();
    for (int i = 0; i < 4; ++i) {
      co_await m->write(static_cast<std::uint64_t>(i) * kChunk,
                        Buffer::pattern(kChunk, 50 + i));
      (void)co_await m->ioctl_commit();
    }
    co_await m->wait_drained();
    const flush::FlushStats& st = m->flush_agent()->stats();
    EXPECT_EQ(st.drains_completed, 4u);
    EXPECT_GT(st.backpressure_waits, 0u);
    EXPECT_GT(st.blocked_time, 0);
    (void)rig;
  }(&rig, &m));
}

TEST(FlushAgentTest, DrainFailurePoisonsAgentAndDropsQueuedGenerations) {
  // A queued generation is a *delta* on top of the generation draining
  // ahead of it. If that drain fails (here: a data provider dies mid-put),
  // publishing the queued delta would create a version silently missing
  // the failed dirty ranges — the agent must go dead instead, dropping the
  // queue and reporting the failure to every waiter.
  FlushRig rig(/*with_reduction=*/false, /*replication=*/2);
  core::MirrorDevice m(*rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1,
                       mirror_config(4), rig.fresh_cache());
  rig.run([](FlushRig* rig, core::MirrorDevice* m) -> Task<> {
    const blob::BlobId ckpt = co_await m->ioctl_clone();
    co_await m->write(0, Buffer::pattern(kImage, 77));
    const blob::VersionId v1 = co_await m->ioctl_commit();
    co_await m->wait_drained();

    bool armed = true;
    m->flush_agent()->set_stage_probe(
        [rig, &armed](blob::CommitStage s) -> Task<> {
          if (armed && s == blob::CommitStage::Putting) {
            armed = false;
            rig->store->fail_node(4);  // a replica target dies mid-drain
          }
          co_return;
        });
    co_await m->write(0, Buffer::pattern(kImage, 88));
    const blob::VersionId vA = co_await m->ioctl_commit();  // drain fails
    co_await m->write(0, Buffer::pattern(2 * kChunk, 99));
    const blob::VersionId vB = co_await m->ioctl_commit();  // queued, dropped
    co_await rig->sim.delay(5 * sim::kSecond);

    EXPECT_TRUE(m->flush_agent()->failed());
    bool threw = false;
    try {
      co_await m->wait_drained();
    } catch (const blob::BlobError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "drain failure not reported";
    // Sticky: a later waiter still sees the agent as failed.
    threw = false;
    try {
      co_await m->wait_drained();
    } catch (const blob::BlobError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "poisoned agent reported healthy";

    // Neither doomed generation published; the baseline stays latest and
    // restores bit for bit from the surviving replicas.
    blob::BlobClient probe(*rig->store, rig->host);
    const blob::BlobMeta meta = co_await probe.stat(ckpt);
    EXPECT_EQ(meta.latest(), v1);
    EXPECT_TRUE(meta.version(vA).pending);
    EXPECT_TRUE(meta.version(vB).pending);
    const Buffer got = co_await probe.read(ckpt, v1, 0, kImage);
    EXPECT_TRUE(got == Buffer::pattern(kImage, 77));
  }(&rig, &m));
}

// ---------------------------------------------------------------------------
// Randomized crash-consistency harness. Each seed: build a rig, publish a
// couple of baseline snapshots, then fail-stop the drain at a random stage
// boundary and require (a) the latest *published* version restores
// bit-exactly, (b) a GC pass after the crash reclaims nothing it should
// not, (c) a restarted device can keep checkpointing into the same image.
// ---------------------------------------------------------------------------

constexpr blob::CommitStage kStages[] = {
    blob::CommitStage::Staged,      blob::CommitStage::Reducing,
    blob::CommitStage::Putting,     blob::CommitStage::PrePublish,
    blob::CommitStage::PostPublish, blob::CommitStage::ParityEncode,
};

struct HarnessState {
  std::vector<std::byte> ref;  // live image content
  std::map<blob::VersionId, std::vector<std::byte>> expected;  // at submit
  blob::BlobId ckpt = 0;
};

Task<> do_random_writes(Rng* rng, core::MirrorDevice* m, HarnessState* st) {
  const int n = 2 + static_cast<int>(rng->uniform(5));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t off = rng->uniform(kImage - 1);
    const std::uint64_t len = 1 + rng->uniform(std::min<std::uint64_t>(
                                      kImage - off, 3 * kChunk) - 1 + 1);
    Buffer data = Buffer::pattern(len, rng->next_u64());
    std::memcpy(st->ref.data() + off, data.bytes().data(), len);
    co_await m->write(off, std::move(data));
  }
}

void run_one_seed(int seed) {
  Rng rng(0xf1a5'0000 + static_cast<std::uint64_t>(seed));
  const bool with_reduction = rng.uniform(2) == 0;
  // Formerly the queue-policy draw; kept so every seed keeps its reduction,
  // kill-stage and doomed-commit draws.
  (void)rng.uniform(2);
  const blob::CommitStage kill_stage = kStages[rng.uniform(6)];
  const int doomed_commits = 1 + static_cast<int>(rng.uniform(2));

  FlushRig rig(with_reduction);
  auto st = std::make_unique<HarnessState>();
  {
    const Buffer base = Buffer::pattern(kImage, 42);
    st->ref.assign(base.bytes().begin(), base.bytes().end());
  }

  auto mirror = std::make_unique<core::MirrorDevice>(
      *rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1, mirror_config(),
      rig.fresh_cache(), nullptr, rig.reducer.get());

  // Phase 1: one or two fully-published baseline snapshots.
  rig.run([](FlushRig* rig, Rng* rng, core::MirrorDevice* m,
             HarnessState* st) -> Task<> {
    st->ckpt = co_await m->ioctl_clone();
    const int rounds = 1 + static_cast<int>(rng->uniform(2));
    for (int r = 0; r < rounds; ++r) {
      co_await do_random_writes(rng, m, st);
      const blob::VersionId v = co_await m->ioctl_commit();
      st->expected[v] = st->ref;
    }
    co_await m->wait_drained();
    (void)rig;
  }(&rig, &rng, mirror.get(), st.get()));

  // Phase 2: doomed commits; the drain is fail-stopped at the chosen stage
  // boundary via the probe (the kill runs from a scheduled callback, the
  // probe itself parks until the kill unwinds it).
  bool armed = true;
  core::MirrorDevice* mp = mirror.get();
  mirror->flush_agent()->set_stage_probe(
      [&rig, &armed, mp, kill_stage](blob::CommitStage s) -> Task<> {
        if (armed && s == kill_stage) {
          armed = false;
          rig.sim.call_in(0, [mp] { mp->flush_agent()->fail_stop(); });
          co_await rig.never.wait();  // killed while suspended here
        }
      });
  rig.run([](FlushRig* rig, Rng* rng, core::MirrorDevice* m, HarnessState* st,
             int doomed) -> Task<> {
    for (int r = 0; r < doomed; ++r) {
      co_await do_random_writes(rng, m, st);
      try {
        const blob::VersionId v = co_await m->ioctl_commit();
        st->expected[v] = st->ref;
      } catch (const blob::BlobError&) {
        break;  // agent already fail-stopped (kill during submit window)
      }
      // Give the drain a random amount of runway before the next commit.
      co_await rig->sim.delay(rng->uniform(40) * sim::kMillisecond);
    }
    co_await rig->sim.delay(2 * sim::kSecond);  // let survivors finish
  }(&rig, &rng, mirror.get(), st.get(), doomed_commits));

  // The injection must actually have fired: at least one doomed commit was
  // submitted, so the probe saw every stage up to kill_stage and the agent
  // is fail-stopped now.
  EXPECT_TRUE(mirror->flush_agent()->failed())
      << "kill at stage " << blob::commit_stage_name(kill_stage)
      << " never fired";

  // Fail-stop of the node: the device (and its staged generations) die.
  mirror.reset();

  // Phase 3: the latest *published* version must be one we recorded and
  // must restore bit for bit — no missing or dangling chunks, no torn
  // content, no matter where the kill landed.
  blob::VersionId latest = 0;
  rig.run([](FlushRig* rig, HarnessState* st, blob::VersionId* out) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    const blob::BlobMeta meta = co_await client.stat(st->ckpt);
    *out = meta.latest();
  }(&rig, st.get(), &latest));
  ASSERT_NE(latest, 0u);
  ASSERT_TRUE(st->expected.count(latest) != 0)
      << "latest published version " << latest << " was never recorded";
  rig.run([](FlushRig* rig, HarnessState* st, blob::VersionId* v) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    const Buffer got = co_await client.read(st->ckpt, *v, 0, kImage);
    const Buffer expect = Buffer::real(st->expected.at(*v));
    EXPECT_TRUE(got == expect) << "published version " << *v << " is torn";
  }(&rig, st.get(), &latest));
  if (::testing::Test::HasFailure()) return;

  // Phase 4: GC after the crash. Dead in-flight drains withdrew their pins
  // and index entries, so collecting everything below `latest` must leave
  // the published version intact.
  rig.run([](FlushRig* rig, HarnessState* st, blob::VersionId* v) -> Task<> {
    blob::GarbageCollector gc(*rig->store);
    std::vector<blob::GarbageCollector::Drop> drops{{st->ckpt, *v}};
    (void)co_await gc.collect(std::move(drops));
  }(&rig, st.get(), &latest));
  rig.run([](FlushRig* rig, HarnessState* st, blob::VersionId* v) -> Task<> {
    blob::BlobClient client(*rig->store, rig->host);
    const Buffer got = co_await client.read(st->ckpt, *v, 0, kImage);
    EXPECT_TRUE(got == Buffer::real(st->expected.at(*v)))
        << "version " << *v << " damaged by post-crash GC";
  }(&rig, st.get(), &latest));
  if (::testing::Test::HasFailure()) return;

  // Phase 5: a restarted instance keeps checkpointing into the same image
  // (the repository is not wedged, and the dedup index hands out no refs to
  // dead chunks). Re-write content overlapping the crashed commit's data as
  // dedup bait. The restarted instance starts with a fresh cache.
  auto restarted = std::make_unique<core::MirrorDevice>(
      *rig.repo, rig.host, *rig.disks[3], 100, st->ckpt, latest,
      mirror_config(), rig.fresh_cache(), nullptr, rig.reducer.get());
  restarted->set_checkpoint_blob(st->ckpt, latest);
  st->ref = st->expected.at(latest);
  rig.run([](FlushRig* rig, Rng* rng, core::MirrorDevice* m,
             HarnessState* st) -> Task<> {
    co_await do_random_writes(rng, m, st);
    const blob::VersionId v = co_await m->ioctl_commit();
    co_await m->wait_drained();
    blob::BlobClient client(*rig->store, rig->host);
    const Buffer got = co_await client.read(st->ckpt, v, 0, kImage);
    EXPECT_TRUE(got == Buffer::real(st->ref))
        << "post-restart snapshot " << v << " diverged";
  }(&rig, &rng, restarted.get(), st.get()));
}

// ---------------------------------------------------------------------------
// System level: the FT runner with the async pipeline on. Node failures can
// now land mid-drain; "complete global checkpoint" must mean globally
// published, every rollback target must restore with verified digests, and
// the app-blocked share of checkpoint overhead must be accounted.
// ---------------------------------------------------------------------------

TEST(FlushFtIntegrationTest, JobSurvivesFailuresMidDrainWithVerifiedRestores) {
  core::CloudConfig ccfg;
  ccfg.compute_nodes = 24;
  ccfg.metadata_nodes = 2;
  ccfg.backend = core::Backend::BlobCR;
  ccfg.replication = 2;
  ccfg.flush.enabled = true;
  ccfg.os = vm::GuestOsConfig::test_tiny();
  ccfg.vm.os_ram_bytes = 20 * common::kMB;
  core::Cloud cloud(ccfg);

  ft::FtJobConfig job;
  job.instances = 2;
  job.total_work = 90 * sim::kSecond;
  job.checkpoint_interval = 30 * sim::kSecond;
  job.step = 10 * sim::kSecond;
  job.state_bytes = 2 * common::kMB;
  job.real_data = true;
  job.repair_after_restart = true;
  job.failures = ft::FailureSchedule::sample(
      ft::FailureLaw::exponential(250.0), 2, 3600 * sim::kSecond, 17);

  const ft::FtReport rep = ft::run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.useful_work, job.total_work);
  // Blocked time is accounted and is a strict subset of checkpoint overhead.
  EXPECT_GT(rep.ckpt_blocked, 0);
  EXPECT_LT(rep.ckpt_blocked, rep.checkpoint_overhead);
}

TEST(FlushFtIntegrationTest, SyntheticScenarioReportsBlockedTimeAndSizes) {
  core::CloudConfig cfg;
  cfg.compute_nodes = 8;
  cfg.metadata_nodes = 2;
  cfg.backend = core::Backend::BlobCR;
  cfg.flush.enabled = true;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  core::Cloud cloud(cfg);

  apps::SyntheticRun run;
  run.instances = 2;
  run.buffer_bytes = 2 * common::kMB;
  run.real_data = true;
  run.rounds = 2;
  run.do_restart = true;
  const apps::RunResult res =
      apps::run_synthetic(cloud, run, apps::CkptMode::AppLevel);

  EXPECT_TRUE(res.verified);
  ASSERT_EQ(res.checkpoint_times.size(), 2u);
  ASSERT_EQ(res.checkpoint_blocked_times.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    // The VM pause is a strict subset of the end-to-end publish time.
    EXPECT_GT(res.checkpoint_blocked_times[r], 0);
    EXPECT_LT(res.checkpoint_blocked_times[r], res.checkpoint_times[r]);
    // Snapshot sizes are refreshed from the published version records even
    // though the snapshots were recorded while provisional.
    EXPECT_GT(res.snapshot_bytes_per_vm[r], 0u);
  }
}

// ---------------------------------------------------------------------------
// Parity redundancy tier (src/redundancy/): XOR reconstruction correctness,
// and fail-stop exactly at the ParityEncode stage boundary — the commit has
// published by then, so the latest version must restore bit-exactly, the
// kill must leave no half-registered group state, and a GC pass over the
// crashed lineage must leave no orphaned parity blocks in holder caches.
// ---------------------------------------------------------------------------

/// The byte loop xor_combine replaced, kept as its reference: XOR into a
/// zero-filled result as long as the longer operand.
Buffer xor_reference(const Buffer& a, const Buffer& b) {
  std::vector<std::byte> out(std::max(a.size(), b.size()), std::byte{0});
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a.bytes()[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[i] ^= b.bytes()[i];
  return Buffer::real(std::move(out));
}

TEST(RedundancyXorTest, XorCombineMatchesByteLoop) {
  const std::pair<std::size_t, std::size_t> sizes[] = {
      {8, 8},   {16, 16}, {13, 13}, {1, 1},     {7, 7},     {9, 9},
      {16, 9},  {9, 16},  {3, 100}, {100, 3},   {64, 57},   {57, 64},
      {0, 5},   {5, 0},   {0, 16},  {kChunk, kChunk / 2 + 3},
      {kChunk - 1, kChunk}};
  std::uint64_t seed = 1;
  for (const auto& [na, nb] : sizes) {
    const Buffer a = Buffer::pattern(na, seed++);
    const Buffer b = Buffer::pattern(nb, seed++);
    EXPECT_EQ(redundancy::xor_combine(a, b), xor_reference(a, b))
        << na << " ^ " << nb;
  }
  EXPECT_TRUE(redundancy::xor_combine(Buffer(), Buffer()).empty());

  // Phantom poisoning: any phantom byte in either operand makes the whole
  // result a phantom of the longer length.
  Buffer mixed = Buffer::pattern(10, 3);
  mixed.append(Buffer::phantom(6));
  EXPECT_EQ(redundancy::xor_combine(Buffer::pattern(40, 1), mixed),
            Buffer::phantom(40));
  EXPECT_EQ(redundancy::xor_combine(mixed, Buffer::pattern(4, 2)),
            Buffer::phantom(16));
  EXPECT_EQ(redundancy::xor_combine(Buffer(), Buffer::phantom(7)),
            Buffer::phantom(7));
}

TEST(RedundancyManagerTest, XorRebuildReconstructsLostMemberBitExact) {
  Simulation s;
  net::Fabric::Config fcfg;
  fcfg.node_count = 4;
  fcfg.nic_bandwidth_bps = 1e9;
  fcfg.latency = 50 * sim::kMicrosecond;
  net::Fabric fabric(s, fcfg);
  redundancy::RedundancyConfig rcfg;
  rcfg.enabled = true;
  rcfg.group_size = 3;
  redundancy::Manager mgr(s, fabric, rcfg, {});
  core::DecodedChunkCache c0(1 << 22), c1(1 << 22), c2(1 << 22), c3(1 << 22);
  mgr.attach(0, &c0);
  mgr.attach(1, &c1);
  mgr.attach(2, &c2);
  mgr.attach(3, &c3);

  // Distinct payloads (one deliberately shorter: the XOR zero-pads).
  const Buffer a = Buffer::pattern(kChunk, 11);
  const Buffer b = Buffer::pattern(kChunk, 22);
  const Buffer c = Buffer::pattern(kChunk / 2, 33);
  const auto key = [](blob::ChunkId id) { return core::ChunkKey{id, 0}; };

  const auto run = [&s](Task<> t) {
    auto p = s.spawn("t", std::move(t));
    s.run();
    if (p->error()) std::rethrow_exception(p->error());
  };
  const auto one = [&key](blob::ChunkId id, const Buffer& data) {
    std::vector<redundancy::Manager::ChunkPayload> v;
    v.push_back(redundancy::Manager::ChunkPayload{key(id), id, data});
    return v;
  };
  run([&]() -> Task<> {
    co_await mgr.encode_commit(0, one(101, a));
    co_await mgr.encode_commit(2, one(102, b));
    co_await mgr.encode_commit(3, one(103, c));
  }());
  ASSERT_EQ(mgr.stats().groups_sealed, 1u);
  ASSERT_TRUE(mgr.protects(key(102)));
  EXPECT_EQ(mgr.resident_parity_blocks(), 1u);

  // Node 2 dies: its cached payload is gone, the sealed group survives.
  c2.clear();
  mgr.drop_node(2);
  ASSERT_TRUE(mgr.protects(key(102)));

  // The lost member reconstructs bit-exactly from the survivors + parity.
  std::optional<Buffer> rebuilt;
  run([&]() -> Task<> {
    rebuilt = co_await mgr.rebuild(key(102), 3);
  }());
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_TRUE(*rebuilt == b) << "XOR rebuild diverged from the lost payload";
  EXPECT_EQ(mgr.stats().rebuilds, 1u);
  EXPECT_EQ(mgr.stats().rebuild_bytes, b.size());

  // GC reclaim of any member invalidates the group and erases its parity
  // from the holder cache — no orphaned parity blocks.
  mgr.forget_chunks({101});
  EXPECT_FALSE(mgr.protects(key(102)));
  EXPECT_EQ(mgr.resident_parity_blocks(), 0u);
  EXPECT_EQ(mgr.stats().parity_blocks, 0u);
  EXPECT_GE(mgr.stats().groups_dropped, 1u);
}

// One XOR block recovers one lost member. With two members of a group gone,
// rebuild must fall through to the repository (nullopt, counted as a
// failure) for real and size-only (phantom) payloads alike.
TEST(RedundancyManagerTest, TwoLostMembersFallThroughToRepository) {
  for (const bool phantom : {false, true}) {
    SCOPED_TRACE(phantom ? "phantom payloads" : "real payloads");
    Simulation s;
    net::Fabric::Config fcfg;
    fcfg.node_count = 4;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 50 * sim::kMicrosecond;
    net::Fabric fabric(s, fcfg);
    redundancy::RedundancyConfig rcfg;
    rcfg.enabled = true;
    rcfg.group_size = 3;
    redundancy::Manager mgr(s, fabric, rcfg, {});
    core::DecodedChunkCache c0(1 << 22), c1(1 << 22), c2(1 << 22),
        c3(1 << 22);
    mgr.attach(0, &c0);
    mgr.attach(1, &c1);
    mgr.attach(2, &c2);
    mgr.attach(3, &c3);

    const auto key = [](blob::ChunkId id) { return core::ChunkKey{id, 0}; };
    const auto one = [&key, phantom](blob::ChunkId id) {
      std::vector<redundancy::Manager::ChunkPayload> v;
      v.push_back(redundancy::Manager::ChunkPayload{
          key(id), id,
          phantom ? Buffer::phantom(kChunk) : Buffer::pattern(kChunk, id)});
      return v;
    };
    const auto run = [&s](Task<> t) {
      auto p = s.spawn("t", std::move(t));
      s.run();
      if (p->error()) std::rethrow_exception(p->error());
    };
    // Members on nodes 0, 2 and 3; the round-robin skips the committing
    // node 0 and makes node 1 the holder.
    run([&]() -> Task<> {
      co_await mgr.encode_commit(0, one(301));
      co_await mgr.encode_commit(2, one(302));
      co_await mgr.encode_commit(3, one(303));
    }());
    ASSERT_EQ(mgr.stats().groups_sealed, 1u);

    c2.clear();
    c3.clear();
    mgr.drop_node(2);
    mgr.drop_node(3);
    ASSERT_TRUE(mgr.protects(key(302)));  // the holder survived

    std::optional<Buffer> rebuilt;
    run([&]() -> Task<> { rebuilt = co_await mgr.rebuild(key(302), 1); }());
    EXPECT_FALSE(rebuilt.has_value());
    EXPECT_EQ(mgr.stats().rebuild_failures, 1u);
    EXPECT_EQ(mgr.stats().rebuilds, 0u);
    EXPECT_EQ(mgr.stats().rebuild_bytes, 0u);
  }
}

// Regression: a sealed group whose parity *holder* fail-stops used to keep
// counting as durable — protects() said yes, stats_ kept the parity bytes,
// and a member rebuild would try to read parity from a dead node's cache.
// The holder's death must invalidate the group so member fetches fall
// through to the repository tier.
TEST(RedundancyManagerTest, DeadParityHolderInvalidatesSealedGroup) {
  Simulation s;
  net::Fabric::Config fcfg;
  fcfg.node_count = 4;
  fcfg.nic_bandwidth_bps = 1e9;
  fcfg.latency = 50 * sim::kMicrosecond;
  net::Fabric fabric(s, fcfg);
  redundancy::RedundancyConfig rcfg;
  rcfg.enabled = true;
  rcfg.group_size = 3;
  redundancy::Manager mgr(s, fabric, rcfg, {});
  core::DecodedChunkCache c0(1 << 22), c1(1 << 22), c2(1 << 22), c3(1 << 22);
  mgr.attach(0, &c0);
  mgr.attach(1, &c1);
  mgr.attach(2, &c2);
  mgr.attach(3, &c3);

  const Buffer a = Buffer::pattern(kChunk, 44);
  const Buffer b = Buffer::pattern(kChunk, 55);
  const Buffer c = Buffer::pattern(kChunk, 66);
  const auto key = [](blob::ChunkId id) { return core::ChunkKey{id, 0}; };
  const auto run = [&s](Task<> t) {
    auto p = s.spawn("t", std::move(t));
    s.run();
    if (p->error()) std::rethrow_exception(p->error());
  };
  const auto one = [&key](blob::ChunkId id, const Buffer& data) {
    std::vector<redundancy::Manager::ChunkPayload> v;
    v.push_back(redundancy::Manager::ChunkPayload{key(id), id, data});
    return v;
  };
  run([&]() -> Task<> {
    co_await mgr.encode_commit(0, one(201, a));
    co_await mgr.encode_commit(2, one(202, b));
    co_await mgr.encode_commit(3, one(203, c));
  }());
  ASSERT_EQ(mgr.stats().groups_sealed, 1u);
  const auto gid = mgr.group_of(key(202));
  ASSERT_TRUE(gid.has_value());
  const std::optional<net::NodeId> holder_id = mgr.holder_of(*gid);
  ASSERT_TRUE(holder_id.has_value());
  const net::NodeId holder = *holder_id;
  ASSERT_GT(mgr.stats().parity_bytes, 0u);

  // The holder fail-stops: cache contents gone, node leaves the tier.
  (holder == 0 ? c0 : holder == 1 ? c1 : holder == 2 ? c2 : c3).clear();
  mgr.drop_node(holder);

  // The group is unrecoverable and must stop counting as durable.
  EXPECT_FALSE(mgr.protects(key(202)));
  EXPECT_EQ(mgr.stats().parity_blocks, 0u);
  EXPECT_EQ(mgr.stats().parity_bytes, 0u);
  EXPECT_EQ(mgr.resident_parity_blocks(), 0u);

  // A member rebuild falls through (nullopt) — the caller drops to the
  // repository tier — instead of pretending the dead holder's parity is
  // reachable. Surviving *resident* member copies keep serving: they never
  // depended on the holder.
  std::optional<Buffer> rebuilt;
  run([&]() -> Task<> { rebuilt = co_await mgr.rebuild(key(202), 3); }());
  EXPECT_FALSE(rebuilt.has_value());
  std::optional<Buffer> fetched;
  run([&]() -> Task<> {
    fetched = co_await mgr.fetch_resident(key(202), 3);
  }());
  ASSERT_TRUE(fetched.has_value());
  EXPECT_TRUE(*fetched == b);

  // Survivor commits keep working after the round-robin shrank: a fresh
  // line seals into a new group held by a live node.
  run([&]() -> Task<> {
    co_await mgr.encode_commit(0, one(301, a));
    co_await mgr.encode_commit(2, one(302, b));
    co_await mgr.encode_commit(3, one(303, c));
  }());
  EXPECT_EQ(mgr.stats().groups_sealed, 2u);
  EXPECT_TRUE(mgr.protects(key(302)));
}

TEST(FlushParityTest, KillAtParityEncodeRestoresBitExactWithNoOrphanedParity) {
  FlushRig rig;
  redundancy::RedundancyConfig rcfg;
  rcfg.enabled = true;
  rcfg.group_size = 4;
  redundancy::Manager mgr(rig.sim, *rig.fabric, rcfg, {});
  const std::uint64_t hook = rig.store->add_chunk_reclaim_hook(
      [&mgr](const std::vector<blob::ChunkId>& ids) {
        mgr.forget_chunks(ids);
      });

  core::MirrorDevice::Config mcfg = mirror_config(2);
  mcfg.redundancy = &mgr;
  // Two committing nodes so parity groups can form (the tier needs >= 2
  // attached nodes; with 2, each member seals into a width-1 group whose
  // parity block lives on the *other* node — a peer-held replica).
  auto m0 = std::make_unique<core::MirrorDevice>(
      *rig.repo, rig.host, *rig.disks[3], 99, rig.base, 1, mcfg,
      rig.fresh_cache());
  auto m1 = std::make_unique<core::MirrorDevice>(
      *rig.repo, static_cast<net::NodeId>(rig.host - 1), *rig.disks[3], 101,
      rig.base, 1, mcfg, rig.fresh_cache());

  // Baseline: both nodes publish a snapshot; the drains encode parity.
  blob::BlobId ckpt0 = 0;
  const Buffer base_content = Buffer::pattern(2 * kChunk, 7);
  rig.run([&]() -> Task<> {
    ckpt0 = co_await m0->ioctl_clone();
    co_await m0->write(0, base_content);
    (void)co_await m0->ioctl_commit();
    const blob::BlobId ckpt1 = co_await m1->ioctl_clone();
    co_await m1->write(0, Buffer::pattern(2 * kChunk, 9));
    (void)co_await m1->ioctl_commit();
    co_await m0->wait_drained();
    co_await m1->wait_drained();
    (void)ckpt1;
  }());
  ASSERT_GT(mgr.stats().members_encoded, 0u) << "parity tier never engaged";
  ASSERT_GT(mgr.stats().groups_sealed, 0u);
  EXPECT_EQ(mgr.stats().parity_blocks, mgr.resident_parity_blocks());

  // Doomed commit on m0, fail-stopped exactly at the ParityEncode boundary.
  // The stage fires after publish, so the version IS durable; the kill must
  // leave the group state exactly as it was before the commit.
  const std::uint64_t encoded_before = mgr.stats().members_encoded;
  bool armed = true;
  core::MirrorDevice* mp = m0.get();
  m0->flush_agent()->set_stage_probe(
      [&rig, &armed, mp](blob::CommitStage s) -> Task<> {
        if (armed && s == blob::CommitStage::ParityEncode) {
          armed = false;
          rig.sim.call_in(0, [mp] { mp->flush_agent()->fail_stop(); });
          co_await rig.never.wait();  // killed while suspended here
        }
      });
  const Buffer doomed_content = Buffer::pattern(2 * kChunk, 13);
  rig.run([&]() -> Task<> {
    co_await m0->write(0, doomed_content);
    (void)co_await m0->ioctl_commit();
    co_await rig.sim.delay(2 * sim::kSecond);
  }());
  EXPECT_TRUE(m0->flush_agent()->failed()) << "parity-encode kill never fired";
  EXPECT_EQ(mgr.stats().members_encoded, encoded_before)
      << "a fail-stop mid-encode half-registered a member";
  EXPECT_EQ(mgr.stats().parity_blocks, mgr.resident_parity_blocks());

  // The doomed commit published before the kill: it restores bit-exactly.
  rig.run([&]() -> Task<> {
    blob::BlobClient client(*rig.store, rig.host);
    const blob::BlobMeta meta = co_await client.stat(ckpt0);
    const Buffer got =
        co_await client.read(ckpt0, meta.latest(), 0, doomed_content.size());
    EXPECT_TRUE(got == doomed_content) << "published version is torn";
  }());

  // GC the superseded baseline version. Its chunks were parity members; the
  // reclaim hook must drop their groups and erase the parity blocks from
  // the holder caches — nothing orphaned.
  const std::uint64_t dropped_before = mgr.stats().groups_dropped;
  blob::GarbageCollector gc(*rig.store);
  rig.run([&]() -> Task<> {
    blob::BlobClient client(*rig.store, rig.host);
    const blob::BlobMeta meta = co_await client.stat(ckpt0);
    std::vector<blob::GarbageCollector::Drop> drops{{ckpt0, meta.latest()}};
    (void)co_await gc.collect(std::move(drops));
  }());
  EXPECT_GT(mgr.stats().groups_dropped, dropped_before)
      << "GC reclaim never invalidated the superseded parity groups";
  EXPECT_EQ(mgr.stats().parity_blocks, mgr.resident_parity_blocks())
      << "orphaned parity blocks survived the GC";
  rig.store->remove_chunk_reclaim_hook(hook);
}

TEST(FlushCrashConsistencyTest, RandomKillNeverExposesTornSnapshot) {
  constexpr int kSeeds = 220;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    run_one_seed(seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "crash-consistency harness failed at seed " << seed
                    << " (rerun: --gtest_filter=FlushCrashConsistencyTest.* "
                       "and inspect this seed)";
      return;
    }
  }
}

}  // namespace
}  // namespace blobcr
