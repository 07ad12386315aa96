// End-to-end QoS tests for the repository admission plane (qos/admission.h):
// the unified qos::Config validates as a unit; the provider-io gate holds
// weighted fairness when the data-provider pool (not the commit gate) is
// the bottleneck; admission is kill-safe at every gate class; a
// mass-rollback storm and live commits share the plane without starving
// each other in either direction; and restart-prefetch workers killed at
// deployment teardown release their admission permits (the leak that would
// wedge the next restart).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/multi_job.h"
#include "blob/data_provider.h"
#include "blob/store.h"
#include "common/strutil.h"
#include "core/blobcr.h"
#include "cr/session.h"
#include "qos/admission.h"
#include "sim/sim.h"

namespace blobcr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

// ---------------------------------------------------------------------------
// qos::Config — one validated knob set.
// ---------------------------------------------------------------------------

TEST(QosConfigTest, ValidateRejectsFairnessWithEveryGateUnbounded) {
  qos::Config cfg;
  EXPECT_NO_THROW(cfg.validate());  // disabled + unbounded is the default
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.commit_slots = 2;
  EXPECT_NO_THROW(cfg.validate());
  cfg.commit_slots = 0;
  cfg.prefetch_slots = 1;
  EXPECT_NO_THROW(cfg.validate());

  // The plane itself refuses to be built around an incoherent config...
  sim::Simulation sim;
  qos::Config bad;
  bad.enabled = true;
  EXPECT_THROW(qos::AdmissionPlane(sim, bad), std::invalid_argument);

  // ...and so does a Cloud, at construction rather than mid-run.
  CloudConfig ccfg;
  ccfg.compute_nodes = 4;
  ccfg.backend = Backend::BlobCR;
  ccfg.qos.enabled = true;
  EXPECT_THROW(Cloud cloud(ccfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Provider-io gate: weighted fairness where the disk, not the commit gate,
// is the bottleneck. One provider, one admission slot, a slow disk: a small
// tenant's single store overtakes a bulk tenant's backlog in fair mode and
// waits it out in FIFO mode at identical capacity.
// ---------------------------------------------------------------------------

struct ProviderCluster {
  sim::Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  net::NodeId client_node = 0;

  explicit ProviderCluster(bool fair) {
    net::Fabric::Config fcfg;
    fcfg.node_count = 6;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);

    blob::BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    cfg.metadata_nodes = {2, 3};
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 2e7;  // 20 MB/s: the disk is the bottleneck
    dcfg.position_cost = sim::kMillisecond;
    disks.push_back(std::make_unique<storage::Disk>(sim, "disk4", dcfg));
    cfg.data_providers.push_back({4, disks.back().get(), 1});
    cfg.qos.enabled = fair;
    cfg.qos.provider_slots = 1;  // identical capacity in both modes
    store = std::make_unique<blob::BlobStore>(sim, *fabric, cfg);
    client_node = 5;
  }
};

Task<> store_one(ProviderCluster* tc, net::TenantId tenant, blob::ChunkId id,
                 std::uint64_t bytes, sim::Duration pre_delay,
                 sim::Time* done) {
  if (pre_delay > 0) co_await tc->sim.delay(pre_delay);
  blob::DataProvider* p = tc->store->provider_at(4);
  co_await p->store(tc->client_node, id, Buffer::pattern(bytes, id),
                    qos::IoContext{tenant, qos::GateClass::ProviderIo});
  if (done != nullptr) *done = tc->sim.now();
}

TEST(QosProviderGateTest, SmallStoreOvertakesBulkBacklogOnlyUnderFairness) {
  sim::Time small_done_fair = 0;
  sim::Time small_done_fifo = 0;
  for (const bool fair : {true, false}) {
    ProviderCluster tc(fair);
    const net::TenantId bulk = tc.store->tenants().register_tenant("bulk");
    const net::TenantId small = tc.store->tenants().register_tenant("small");

    sim::Time small_done = 0;
    std::vector<sim::Time> bulk_done(4, 0);
    for (std::size_t i = 0; i < bulk_done.size(); ++i) {
      tc.sim.spawn("bulk", store_one(&tc, bulk, 100 + i, 256 * 1024, 0,
                                     &bulk_done[i]));
    }
    tc.sim.spawn("small", store_one(&tc, small, 200, 64 * 1024,
                                    5 * sim::kMillisecond, &small_done));
    tc.sim.run();

    const net::FairGate& gate =
        tc.store->admission().gate(qos::GateClass::ProviderIo);
    EXPECT_EQ(gate.admitted(small), 1u);
    EXPECT_EQ(gate.admitted(bulk), 4u);
    EXPECT_EQ(gate.in_use(), 0u);
    EXPECT_EQ(gate.pending(), 0u);

    const sim::Time bulk_last =
        *std::max_element(bulk_done.begin(), bulk_done.end());
    if (fair) {
      // Admitted right after the in-flight bulk store drains, ahead of the
      // backlog: the small tenant has no accumulated normalized service.
      EXPECT_LT(small_done, bulk_last)
          << "fair provider gate kept the small store behind the backlog";
      EXPECT_LT(tc.store->admission().wait(qos::GateClass::ProviderIo, small),
                tc.store->admission().wait(qos::GateClass::ProviderIo, bulk));
      small_done_fair = small_done;
    } else {
      EXPECT_GT(small_done, bulk_last)
          << "FIFO baseline should drain arrivals in order";
      small_done_fifo = small_done;
    }
  }
  // Same capacity, different ordering policy: fairness is strictly better
  // for the small tenant's latency.
  EXPECT_LT(small_done_fair, small_done_fifo);
}

// ---------------------------------------------------------------------------
// Kill-safety at every gate class, through AdmissionPlane::admit: a waiter
// killed in the queue unlinks, a holder killed mid-service releases through
// the RAII permit, and the survivor is admitted the moment the slot frees.
// ---------------------------------------------------------------------------

Task<> admit_and_hold(sim::Simulation* sim, qos::AdmissionPlane* plane,
                      qos::IoContext ctx, sim::Duration pre_delay,
                      sim::Duration hold_time, sim::Time* admitted) {
  if (pre_delay > 0) co_await sim->delay(pre_delay);
  net::FairGate::Permit permit = co_await plane->admit(ctx, 1.0);
  (void)permit;
  if (admitted != nullptr) *admitted = sim->now();
  if (hold_time > 0) co_await sim->delay(hold_time);
}

Task<> kill_two(sim::Simulation* sim, sim::Duration d, sim::ProcessPtr a,
                sim::ProcessPtr b) {
  co_await sim->delay(d);
  a->kill();
  b->kill();
}

TEST(QosPlaneTest, KilledWaiterAndHolderReleaseEveryGateClass) {
  for (const qos::GateClass gc :
       {qos::GateClass::Commit, qos::GateClass::ProviderIo,
        qos::GateClass::RestartPrefetch}) {
    sim::Simulation sim;
    qos::Config cfg;
    cfg.enabled = true;
    cfg.commit_slots = 1;
    cfg.provider_slots = 1;
    cfg.prefetch_slots = 1;
    qos::AdmissionPlane plane(sim, cfg);
    const net::TenantId t1 = plane.tenants().register_tenant("t1");
    const net::TenantId t2 = plane.tenants().register_tenant("t2");

    sim::Time survivor_admitted = 0;
    auto holder = sim.spawn(
        "holder", admit_and_hold(&sim, &plane, {t1, gc}, 0, 10 * sim::kSecond,
                                 nullptr));
    auto waiter = sim.spawn(
        "waiter", admit_and_hold(&sim, &plane, {t1, gc},
                                 100 * sim::kMillisecond, 10 * sim::kSecond,
                                 nullptr));
    sim.spawn("survivor",
              admit_and_hold(&sim, &plane, {t2, gc}, 200 * sim::kMillisecond,
                             0, &survivor_admitted));
    sim.spawn("killer", kill_two(&sim, 1 * sim::kSecond, waiter, holder));
    sim.run();

    EXPECT_EQ(survivor_admitted, 1 * sim::kSecond)
        << "gate " << qos::gate_class_name(gc);
    EXPECT_EQ(plane.gate(gc).in_use(), 0u) << qos::gate_class_name(gc);
    EXPECT_EQ(plane.gate(gc).pending(), 0u) << qos::gate_class_name(gc);
  }
}

// ---------------------------------------------------------------------------
// Rollback storm vs live commits, both directions, through the full stack:
// with every gate bounded, a mass-rollback tenant cycling cold restarts and
// a tenant checkpointing live share the plane — both finish bit-exact, and
// the storm's prefetches actually queue at the restart-prefetch gate.
// ---------------------------------------------------------------------------

CloudConfig qos_cloud_cfg(std::size_t compute_nodes) {
  CloudConfig cfg;
  cfg.compute_nodes = compute_nodes;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.reduction.enabled = true;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  cfg.qos.enabled = true;
  cfg.qos.commit_slots = 2;
  cfg.qos.provider_slots = 2;
  cfg.qos.prefetch_slots = 2;
  return cfg;
}

TEST(QosStormTest, RollbackStormAndLiveCommitsFinishInBothDirections) {
  // storm_is_bulk=true: two bulk instances cycle rollbacks against a small
  // live committer; false swaps the roles (live bulk committer, small
  // tenant cycling restarts). Neither side may starve the other.
  for (const bool storm_is_bulk : {true, false}) {
    Cloud cloud(qos_cloud_cfg(8));
    apps::MultiJobRun run;
    run.shared_fraction = 0.25;

    apps::TenantJobSpec storm;
    storm.name = "storm";
    storm.instances = storm_is_bulk ? 2 : 1;
    storm.buffer_bytes = (storm_is_bulk ? 1024 : 256) * common::kKiB;
    storm.rounds = 3;
    storm.restart_every = 1;  // rollback after every committed round

    apps::TenantJobSpec live;
    live.name = "live";
    live.weight = 2.0;
    live.instances = storm_is_bulk ? 1 : 2;
    live.buffer_bytes = (storm_is_bulk ? 256 : 1024) * common::kKiB;
    live.rounds = 3;
    live.stagger = 500 * sim::kMillisecond;
    live.think_time = 100 * sim::kMillisecond;

    run.jobs = {storm, live};
    const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_TRUE(result.all_verified())
        << "storm_is_bulk=" << storm_is_bulk
        << ": a restore was not bit-exact under contention";
    for (const apps::JobResult& job : result.jobs) {
      ASSERT_EQ(job.records.size(), 3u) << job.name;
      for (const cr::CheckpointRecord& r : job.records) {
        EXPECT_EQ(r.state, cr::RecordState::Complete) << job.name;
      }
    }
    // Two mid-job rollbacks plus the final restart for the storm tenant.
    EXPECT_EQ(result.jobs[0].restart_times.size(), 3u);
    EXPECT_EQ(result.jobs[1].restart_times.size(), 1u);

    // The storm really went through the restart-prefetch gate, and nothing
    // is left admitted or queued anywhere on the plane.
    const qos::AdmissionPlane& plane = cloud.blob_store()->admission();
    EXPECT_GT(
        plane.gate(qos::GateClass::RestartPrefetch).admitted(
            result.jobs[0].tenant),
        0u)
        << "rollback cycles never admitted at the restart-prefetch gate";
    for (const qos::GateClass gc :
         {qos::GateClass::Commit, qos::GateClass::ProviderIo,
          qos::GateClass::RestartPrefetch}) {
      EXPECT_EQ(plane.gate(gc).in_use(), 0u) << qos::gate_class_name(gc);
      EXPECT_EQ(plane.gate(gc).pending(), 0u) << qos::gate_class_name(gc);
    }
  }
}

// ---------------------------------------------------------------------------
// Regression: prefetch workers killed at deployment teardown must release
// their admission state — the permit a holder carries and the queue entry a
// waiter occupies. With prefetch_slots=1 a leaked permit would wedge every
// later restart's prefetch against this repository.
// ---------------------------------------------------------------------------

TEST(QosTeardownTest, KilledPrefetchWorkersReleaseAdmissionPermits) {
  CloudConfig cfg = qos_cloud_cfg(12);
  cfg.qos.prefetch_slots = 1;  // a single leak wedges the gate
  Cloud cloud(cfg);
  bool verified = false;
  std::size_t in_use_after_kill = 1, pending_after_kill = 1;
  std::size_t in_use_final = 1, pending_final = 1;

  cloud.run([](Cloud* cl, bool* verified, std::size_t* in_use_after_kill,
               std::size_t* pending_after_kill, std::size_t* in_use_final,
               std::size_t* pending_final) -> Task<> {
    sim::Simulation& sim = cl->simulation();
    co_await cl->provision_base_image();
    const net::TenantId tenant = cl->register_tenant("t");
    cr::Session::Config scfg;
    scfg.job = "t";

    std::vector<std::uint64_t> digests(2, 0);
    {
      // Driver generation 1: checkpoint, cold-restart, then die while one
      // prefetch worker holds the plane's only prefetch permit and another
      // is queued behind it (teardown kills the workers mid-flight; the
      // permit must release and the waiter must unlink as frames unwind).
      Deployment::Options opts{0, tenant, std::nullopt};
      Deployment dep(*cl, 2, opts);
      cr::Session session(dep, scfg);
      co_await dep.deploy_and_boot();
      for (std::size_t i = 0; i < 2; ++i) {
        Buffer buf = Buffer::pattern(2 * common::kMB, 0xbeef + i);
        digests[i] = buf.digest();
        co_await dep.vm(i).fs()->write_file("/data/buf.bin", std::move(buf));
        co_await dep.vm(i).fs()->sync();
      }
      (void)co_await session.checkpoint();
      dep.destroy_all();
      (void)co_await session.restart(cr::Selector::latest(),
                                     /*node_offset=*/4,
                                     /*cold_caches=*/true);
      for (std::size_t i = 0; i < 2; ++i) {
        core::MirrorDevice* m = dep.instance(i).mirror.get();
        m->hint(0, m->capacity());
      }
      co_await sim.delay(1 * sim::kMillisecond);
      // Total driver loss mid-prefetch: ~Deployment kills every worker.
    }

    const net::FairGate& gate =
        cl->blob_store()->admission().gate(qos::GateClass::RestartPrefetch);
    *in_use_after_kill = gate.in_use();
    *pending_after_kill = gate.pending();

    // Driver generation 2: the gate must still dispatch — a fresh
    // deployment's cold restart (whose scheduler prefetches through the
    // same single slot) restores bit-exactly.
    Deployment::Options opts2{8, tenant, std::nullopt};
    Deployment dep2(*cl, 2, opts2);
    cr::Session session2(dep2, scfg);
    (void)co_await session2.restart(cr::Selector::latest(),
                                    /*node_offset=*/8,
                                    /*cold_caches=*/true);
    bool ok = true;
    for (std::size_t i = 0; i < 2; ++i) {
      const Buffer back =
          co_await dep2.vm(i).fs()->read_file("/data/buf.bin");
      ok = ok && back.size() == 2 * common::kMB && back.digest() == digests[i];
    }
    *verified = ok;
    co_await sim.delay(30 * sim::kSecond);  // let background prefetch drain
    *in_use_final = gate.in_use();
    *pending_final = gate.pending();
  }(&cloud, &verified, &in_use_after_kill, &pending_after_kill, &in_use_final,
    &pending_final));

  EXPECT_EQ(in_use_after_kill, 0u)
      << "a killed prefetch holder leaked its admission permit";
  EXPECT_EQ(pending_after_kill, 0u)
      << "a killed queued prefetch worker never unlinked from the gate";
  EXPECT_TRUE(verified);
  EXPECT_EQ(in_use_final, 0u);
  EXPECT_EQ(pending_final, 0u);
}

}  // namespace
}  // namespace blobcr
