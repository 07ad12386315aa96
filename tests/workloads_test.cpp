// End-to-end tests for the HEP event-loop and k-mer scan workloads:
// exactly-once output via disk-snapshot I/O rollback (HEP) and lazy fetch
// of a shared read-only reference during runtime (k-mer).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/hep.h"
#include "apps/kmer.h"
#include "core/blobcr.h"
#include "cr/remap.h"
#include "sim/sim.h"

namespace blobcr::apps {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using core::GlobalCheckpoint;
using sim::Task;

CloudConfig tiny_cfg(Backend backend) {
  CloudConfig cfg;
  cfg.compute_nodes = 4;
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.replication = 1;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

HepConfig small_hep() {
  HepConfig cfg;
  cfg.total_events = 1'200;
  cfg.per_event_compute = 100 * sim::kMicrosecond;
  cfg.hit_probability = 0.2;
  cfg.hit_record_bytes = 256;
  cfg.histogram_bytes = 256 * 1024;
  cfg.sync_every_hits = 16;
  cfg.real_data = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// HEP: pure-function properties (no cloud needed)
// ---------------------------------------------------------------------------

TEST(HepTest, HitDecisionsAreDeterministicPerRankAndEvent) {
  // is_hit is a pure function of (seed, rank, event): two instances agree.
  vm::VmConfig vmc;
  sim::Simulation sim;
  img::MemDevice dev(common::kMB);
  vm::VmInstance vm(sim, 0, dev, vmc);
  vm::GuestProcess p1(vm, "a", 0), p2(vm, "b", 1);
  HepRank a(p1, small_hep(), 3);
  HepRank b(p2, small_hep(), 3);
  HepRank other(p2, small_hep(), 4);
  int diff_vs_other = 0;
  for (std::uint64_t e = 0; e < 500; ++e) {
    EXPECT_EQ(a.is_hit(e), b.is_hit(e));
    diff_vs_other += a.is_hit(e) != other.is_hit(e) ? 1 : 0;
  }
  EXPECT_GT(diff_vs_other, 0);  // ranks have independent streams
}

TEST(HepTest, ExpectedHitsTracksProbability) {
  vm::VmConfig vmc;
  sim::Simulation sim;
  img::MemDevice dev(common::kMB);
  vm::VmInstance vm(sim, 0, dev, vmc);
  vm::GuestProcess p(vm, "a", 0);
  HepConfig cfg = small_hep();
  cfg.hit_probability = 0.25;
  HepRank r(p, cfg, 0);
  const double frac =
      static_cast<double>(r.expected_hits(4'000)) / 4'000.0;
  EXPECT_NEAR(frac, 0.25, 0.03);
  EXPECT_LE(r.expected_hits(100), r.expected_hits(200));
}

// ---------------------------------------------------------------------------
// HEP: in-cloud exactly-once pipeline
// ---------------------------------------------------------------------------

struct HepOut {
  std::uint64_t records_at_ckpt = 0;
  std::uint64_t records_after_extra = 0;
  std::uint64_t records_after_restore = 0;
  std::uint64_t records_final = 0;
  std::uint64_t expected_at_ckpt = 0;
  std::uint64_t expected_final = 0;
  std::uint64_t cursor_after_restore = 0;
  bool restore_ok = false;
};

/// Shared driver: process to 600, checkpoint + snapshot, process to 1200
/// (synced!), kill everything, restart, restore, re-process to 1200.
Task<> hep_driver(Cloud* cl, HepConfig cfg, HepOut* out) {
  co_await cl->provision_base_image();
  Deployment dep(*cl, 1);
  co_await dep.deploy_and_boot();

  auto state = std::make_shared<HepOut>();
  sim::Event phase_done(cl->simulation());

  dep.vm(0).start_guest("hep", [&dep, cfg, state,
                                &phase_done](vm::GuestProcess& gp) -> Task<> {
    HepRank hep(gp, cfg, 0);
    co_await hep.init();
    co_await hep.process_until(600);
    (void)co_await hep.write_checkpoint();
    co_await gp.vm().fs()->sync();
    (void)co_await dep.snapshot_instance(0);
    state->expected_at_ckpt = hep.expected_hits(600);
    state->records_at_ckpt = co_await hep.count_log_records();
    // Post-checkpoint work whose output will be rolled back — explicitly
    // synced so the bytes really are on the virtual disk when we kill it.
    co_await hep.process_until(1200);
    co_await gp.vm().fs()->sync();
    state->records_after_extra = co_await hep.count_log_records();
    state->expected_final = hep.expected_hits(1200);
    phase_done.set();
  });
  co_await phase_done.wait();
  co_await dep.vm(0).join_guests();

  const GlobalCheckpoint ckpt = dep.collect_last_snapshots();
  dep.destroy_all();
  const core::RestartPlan plan =
      cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
  co_await dep.restart_from(plan, 2);

  sim::Event recovered(cl->simulation());
  dep.vm(0).start_guest("hep-recover",
                        [cfg, state, &recovered](vm::GuestProcess& gp)
                            -> Task<> {
    HepRank hep(gp, cfg, 0);
    state->restore_ok = co_await hep.restore_checkpoint();
    state->cursor_after_restore = hep.cursor();
    state->records_after_restore = co_await hep.count_log_records();
    co_await hep.process_until(1200);
    co_await gp.vm().fs()->sync();
    state->records_final = co_await hep.count_log_records();
    recovered.set();
  });
  co_await recovered.wait();
  co_await dep.vm(0).join_guests();
  *out = *state;
}

TEST(HepCloudTest, LogRollsBackAndReplayIsExactlyOnce) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  HepOut out;
  cloud.run(hep_driver(&cloud, small_hep(), &out));

  EXPECT_TRUE(out.restore_ok);
  EXPECT_EQ(out.cursor_after_restore, 600u);
  // At checkpoint time the log held exactly the hits of events [0, 600).
  EXPECT_EQ(out.records_at_ckpt, out.expected_at_ckpt);
  // The extra processing appended more (and synced them to the disk).
  EXPECT_GT(out.records_after_extra, out.records_at_ckpt);
  // Restoring the disk snapshot rewound the log — even the synced tail.
  EXPECT_EQ(out.records_after_restore, out.expected_at_ckpt);
  // Replaying the lost events appends each hit exactly once.
  EXPECT_EQ(out.records_final, out.expected_final);
}

TEST(HepCloudTest, ExactlyOnceHoldsOnQcowDiskBackendToo) {
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  HepOut out;
  cloud.run(hep_driver(&cloud, small_hep(), &out));
  EXPECT_TRUE(out.restore_ok);
  EXPECT_EQ(out.records_after_restore, out.expected_at_ckpt);
  EXPECT_EQ(out.records_final, out.expected_final);
}

TEST(HepCloudTest, HistogramSurvivesRoundTripByDigest) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  struct Out {
    std::uint64_t digest_at_ckpt = 0;
    std::uint64_t digest_after_restore = 0;
    bool restore_ok = false;
  } out;
  cloud.run([](Cloud* cl, HepConfig cfg, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    sim::Event done(cl->simulation());
    dep.vm(0).start_guest("hep", [&dep, cfg, out,
                                  &done](vm::GuestProcess& gp) -> Task<> {
      HepRank hep(gp, cfg, 0);
      co_await hep.init();
      co_await hep.process_until(400);
      (void)co_await hep.write_checkpoint();
      co_await gp.vm().fs()->sync();
      (void)co_await dep.snapshot_instance(0);
      out->digest_at_ckpt = hep.state_digest();
      done.set();
    });
    co_await done.wait();
    co_await dep.vm(0).join_guests();
    const GlobalCheckpoint ckpt = dep.collect_last_snapshots();
    dep.destroy_all();
    const core::RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 1);
    sim::Event done2(cl->simulation());
    dep.vm(0).start_guest("hep2", [cfg, out,
                                   &done2](vm::GuestProcess& gp) -> Task<> {
      HepRank hep(gp, cfg, 0);
      out->restore_ok = co_await hep.restore_checkpoint();
      out->digest_after_restore = hep.state_digest();
      done2.set();
    });
    co_await done2.wait();
    co_await dep.vm(0).join_guests();
  }(&cloud, small_hep(), &out));
  EXPECT_TRUE(out.restore_ok);
  EXPECT_EQ(out.digest_after_restore, out.digest_at_ckpt);
}

// ---------------------------------------------------------------------------
// k-mer: slice partition properties (no cloud needed)
// ---------------------------------------------------------------------------

TEST(KmerTest, SlicesPartitionReferenceExactly) {
  for (const int ranks : {1, 2, 3, 5, 8}) {
    KmerConfig cfg;
    cfg.reference_bytes = 10'000'001;  // deliberately not divisible
    cfg.ranks = ranks;
    std::uint64_t covered = 0;
    for (int r = 0; r < ranks; ++r) {
      EXPECT_EQ(cfg.slice_begin(r), r == 0 ? 0 : cfg.slice_end(r - 1));
      covered += cfg.slice_end(r) - cfg.slice_begin(r);
    }
    EXPECT_EQ(covered, cfg.reference_bytes);
    EXPECT_EQ(cfg.slice_end(ranks - 1), cfg.reference_bytes);
  }
}

TEST(KmerTest, InvalidRankThrows) {
  sim::Simulation sim;
  img::MemDevice dev(common::kMB);
  vm::VmConfig vmc;
  vm::VmInstance vm(sim, 0, dev, vmc);
  vm::GuestProcess p(vm, "a", 0);
  KmerConfig cfg;
  cfg.ranks = 2;
  EXPECT_THROW(KmerRank(p, cfg, 2), std::invalid_argument);
  EXPECT_THROW(KmerRank(p, cfg, -1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// k-mer: in-cloud scan / restart / lazy fetch
// ---------------------------------------------------------------------------

KmerConfig small_kmer() {
  KmerConfig cfg;
  cfg.reference_bytes = 4 * common::kMB;
  cfg.window_bytes = 256 * 1024;
  cfg.table_bytes = 128 * 1024;
  cfg.ranks = 1;
  cfg.real_data = true;
  return cfg;
}

CloudConfig kmer_cloud_cfg(Backend backend, const KmerConfig& kcfg) {
  CloudConfig cfg = tiny_cfg(backend);
  kcfg.add_reference_to(cfg.os);
  return cfg;
}

TEST(KmerCloudTest, UninterruptedScanIsDeterministic) {
  const KmerConfig kcfg = small_kmer();
  std::uint64_t digests[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    Cloud cloud(kmer_cloud_cfg(Backend::BlobCR, kcfg));
    cloud.run([](Cloud* cl, KmerConfig kcfg,
                 std::uint64_t* out) -> Task<> {
      co_await cl->provision_base_image();
      Deployment dep(*cl, 1);
      co_await dep.deploy_and_boot();
      sim::Event done(cl->simulation());
      dep.vm(0).start_guest("kmer", [kcfg, out,
                                     &done](vm::GuestProcess& gp) -> Task<> {
        KmerRank scan(gp, kcfg, 0);
        co_await scan.init();
        co_await scan.scan_all();
        *out = scan.state_digest();
        done.set();
      });
      co_await done.wait();
      co_await dep.vm(0).join_guests();
    }(&cloud, kcfg, &digests[round]));
  }
  EXPECT_NE(digests[0], 0u);
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(KmerCloudTest, InterruptedScanResumesToSameResult) {
  const KmerConfig kcfg = small_kmer();

  // Ground truth: one uninterrupted scan.
  std::uint64_t expected = 0;
  {
    Cloud cloud(kmer_cloud_cfg(Backend::BlobCR, kcfg));
    cloud.run([](Cloud* cl, KmerConfig kcfg, std::uint64_t* out) -> Task<> {
      co_await cl->provision_base_image();
      Deployment dep(*cl, 1);
      co_await dep.deploy_and_boot();
      sim::Event done(cl->simulation());
      dep.vm(0).start_guest("kmer", [kcfg, out,
                                     &done](vm::GuestProcess& gp) -> Task<> {
        KmerRank scan(gp, kcfg, 0);
        co_await scan.init();
        co_await scan.scan_all();
        *out = scan.state_digest();
        done.set();
      });
      co_await done.wait();
      co_await dep.vm(0).join_guests();
    }(&cloud, kcfg, &expected));
  }

  // Interrupted run: scan half, checkpoint, kill, restart elsewhere, finish.
  struct Out {
    bool restore_ok = false;
    std::uint64_t resumed_offset = 0;
    std::uint64_t final_digest = 0;
  } out;
  Cloud cloud(kmer_cloud_cfg(Backend::BlobCR, kcfg));
  cloud.run([](Cloud* cl, KmerConfig kcfg, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    sim::Event done(cl->simulation());
    dep.vm(0).start_guest("kmer", [&dep, kcfg,
                                   &done](vm::GuestProcess& gp) -> Task<> {
      KmerRank scan(gp, kcfg, 0);
      co_await scan.init();
      co_await scan.scan_until(kcfg.reference_bytes / 2);
      (void)co_await scan.write_checkpoint();
      co_await gp.vm().fs()->sync();
      (void)co_await dep.snapshot_instance(0);
      done.set();
    });
    co_await done.wait();
    co_await dep.vm(0).join_guests();

    const GlobalCheckpoint ckpt = dep.collect_last_snapshots();
    dep.destroy_all();
    const core::RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 2);

    sim::Event done2(cl->simulation());
    dep.vm(0).start_guest("kmer2", [kcfg, out,
                                    &done2](vm::GuestProcess& gp) -> Task<> {
      KmerRank scan(gp, kcfg, 0);
      co_await scan.init();
      out->restore_ok = co_await scan.restore_checkpoint();
      out->resumed_offset = scan.offset();
      co_await scan.scan_all();
      out->final_digest = scan.state_digest();
      done2.set();
    });
    co_await done2.wait();
    co_await dep.vm(0).join_guests();
  }(&cloud, kcfg, &out));

  EXPECT_TRUE(out.restore_ok);
  EXPECT_EQ(out.resumed_offset, kcfg.reference_bytes / 2);
  EXPECT_EQ(out.final_digest, expected);
}

TEST(KmerCloudTest, ScanLazilyFetchesOnlyTouchedReference) {
  const KmerConfig kcfg = small_kmer();
  struct Out {
    std::uint64_t fetched_before = 0;
    std::uint64_t fetched_half = 0;
    std::uint64_t fetched_full = 0;
  } out;
  Cloud cloud(kmer_cloud_cfg(Backend::BlobCR, kcfg));
  cloud.run([](Cloud* cl, KmerConfig kcfg, Out* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();
    out->fetched_before = dep.instance(0).mirror->remote_bytes_fetched();
    sim::Event done(cl->simulation());
    dep.vm(0).start_guest("kmer", [&dep, kcfg, out,
                                   &done](vm::GuestProcess& gp) -> Task<> {
      KmerRank scan(gp, kcfg, 0);
      co_await scan.init();
      co_await scan.scan_until(kcfg.reference_bytes / 2);
      out->fetched_half = dep.instance(0).mirror->remote_bytes_fetched();
      co_await scan.scan_all();
      out->fetched_full = dep.instance(0).mirror->remote_bytes_fetched();
      done.set();
    });
    co_await done.wait();
    co_await dep.vm(0).join_guests();
  }(&cloud, kcfg, &out));

  const std::uint64_t half_delta = out.fetched_half - out.fetched_before;
  const std::uint64_t full_delta = out.fetched_full - out.fetched_before;
  // The first half of the scan fetched at least half the reference...
  EXPECT_GE(half_delta, kcfg.reference_bytes / 2);
  // ...but left a substantial part of it untouched (no eager prefetch).
  EXPECT_LT(half_delta, full_delta);
  EXPECT_GE(full_delta, kcfg.reference_bytes);
}

}  // namespace
}  // namespace blobcr::apps
