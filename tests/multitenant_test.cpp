// Multi-tenant repository tests: K concurrent jobs (distinct tenants,
// sessions and catalogs) checkpoint/restart bit-exactly through ONE shared
// BlobStore; the repository-scoped digest index dedups cross-job content;
// one tenant's retention/GC never reclaims chunks another tenant's versions
// reference (including with a drain killed at a commit stage boundary); each
// tenant's catalog lists only its own lineage.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/multi_job.h"
#include "blob/client.h"
#include "core/blobcr.h"
#include "cr/session.h"
#include "flush/flush_agent.h"
#include "sim/sim.h"

namespace blobcr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

CloudConfig repo_cfg(std::size_t compute_nodes = 24) {
  CloudConfig cfg;
  cfg.compute_nodes = compute_nodes;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.reduction.enabled = true;  // shared_index defaults to repository scope
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

apps::MultiJobRun three_jobs() {
  apps::MultiJobRun run;
  run.shared_fraction = 0.5;
  apps::TenantJobSpec a;
  a.name = "jobA";
  a.weight = 2.0;
  a.instances = 2;
  a.buffer_bytes = 1 * common::kMB;
  a.rounds = 2;
  apps::TenantJobSpec b = a;
  b.name = "jobB";
  b.weight = 1.0;
  b.instances = 1;
  b.stagger = 2 * sim::kSecond;
  apps::TenantJobSpec c = b;
  c.name = "jobC";
  c.stagger = 4 * sim::kSecond;
  run.jobs = {a, b, c};
  return run;
}

// run_multi_job refuses a cloud without room for every job's node range
// plus, when any job restarts, its shifted restart range — in every build.
TEST(MultiTenantTest, MultiJobRefusesTooFewComputeNodes) {
  Cloud cloud(repo_cfg(7));  // three_jobs(): 4 instances, all restart
  EXPECT_THROW(apps::run_multi_job(cloud, three_jobs()), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// K=3 concurrent jobs through one repository: bit-exact restores, per-tenant
// accounting, and per-tenant catalogs that list only their own lineage.
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, ConcurrentJobsRestoreBitExactThroughOneRepository) {
  CloudConfig cfg = repo_cfg();
  cfg.qos.enabled = true;
  cfg.qos.commit_slots = 2;
  Cloud cloud(cfg);
  const apps::MultiJobRun run = three_jobs();
  const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_TRUE(result.all_verified()) << "a tenant's restore was not bit-exact";
  for (std::size_t k = 0; k < result.jobs.size(); ++k) {
    const apps::JobResult& job = result.jobs[k];
    EXPECT_NE(job.tenant, net::kDefaultTenant);
    // Own lineage only: exactly this job's rounds, every record Complete,
    // ids dense from 1 (each catalog is its own named blob).
    ASSERT_EQ(job.records.size(),
              static_cast<std::size_t>(run.jobs[k].rounds))
        << job.name << " sees foreign catalog records";
    for (std::size_t r = 0; r < job.records.size(); ++r) {
      EXPECT_EQ(job.records[r].id, r + 1);
      EXPECT_EQ(job.records[r].state, cr::RecordState::Complete);
      EXPECT_EQ(job.records[r].snapshots.size(), run.jobs[k].instances);
    }
    EXPECT_GT(job.usage.raw_bytes, 0u) << job.name;
    EXPECT_GT(job.usage.shipped_bytes, 0u) << job.name;
    EXPECT_LE(job.usage.shipped_bytes, job.usage.raw_bytes) << job.name;
  }
  // Distinct tenants, distinct identities.
  EXPECT_NE(result.jobs[0].tenant, result.jobs[1].tenant);
  EXPECT_NE(result.jobs[1].tenant, result.jobs[2].tenant);

  // The staggered jobs (B, C) replay the first job's image layout with the
  // shared dataset already in the repository: cross-job dedup collapses a
  // large share of what they would otherwise ship. (The FIRST job has no
  // one to dedup against — that asymmetry is the multi-tenant win.)
  for (std::size_t k : {1u, 2u}) {
    const apps::JobResult& job = result.jobs[k];
    EXPECT_LT(static_cast<double>(job.usage.shipped_bytes),
              0.75 * static_cast<double>(job.usage.raw_bytes))
        << "cross-job dedup did not bite for staggered job " << job.name;
  }
}

// ---------------------------------------------------------------------------
// The acceptance comparison: the repository-scoped digest index stores the
// cross-job shared dataset once repository-wide; isolated per-deployment
// indices store it once per job. Shipped bytes must be strictly lower with
// the shared index on an overlapping workload.
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, SharedIndexShipsLessThanIsolatedOnOverlappingJobs) {
  apps::MultiJobRun run;
  run.shared_fraction = 0.8;
  for (const char* name : {"j1", "j2"}) {
    apps::TenantJobSpec spec;
    spec.name = name;
    spec.instances = 1;
    spec.buffer_bytes = 1 * common::kMB;
    spec.rounds = 1;
    spec.do_restart = false;
    spec.stagger = (run.jobs.empty() ? 0 : 3) * sim::kSecond;
    run.jobs.push_back(spec);
  }

  auto total_shipped = [&](bool shared_index) {
    CloudConfig cfg = repo_cfg(8);
    cfg.reduction.shared_index = shared_index;
    Cloud cloud(cfg);
    const apps::MultiJobResult r = apps::run_multi_job(cloud, run);
    std::uint64_t shipped = 0;
    for (const apps::JobResult& j : r.jobs) shipped += j.usage.shipped_bytes;
    return shipped;
  };

  const std::uint64_t isolated = total_shipped(false);
  const std::uint64_t shared = total_shipped(true);
  EXPECT_LT(shared, isolated)
      << "repository-scoped index did not dedup across jobs";
}

// ---------------------------------------------------------------------------
// Cross-tenant GC isolation: tenant A's retention sweep reclaims A's own
// retired versions but never a chunk tenant B's published version references
// through cross-job dedup — including when a third tenant's drain died at a
// commit stage boundary just before the sweep.
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, RetentionSweepNeverReclaimsAnotherTenantsChunks) {
  CloudConfig cfg = repo_cfg(24);
  cfg.flush.enabled = true;  // C's drain is killed mid-commit below
  Cloud cloud(cfg);
  bool b_restored = false, c_restored = false, c_ckpt_threw = false;
  std::uint64_t a_reclaimed = 0;
  std::uint64_t b_shipped = 0, b_raw = 0;

  cloud.run([](Cloud* cl, bool* b_restored, bool* c_restored,
               bool* c_ckpt_threw, std::uint64_t* a_reclaimed,
               std::uint64_t* b_shipped, std::uint64_t* b_raw) -> Task<> {
    sim::Event never(cl->simulation());
    co_await cl->provision_base_image();
    const Buffer dataset = Buffer::pattern(1 * common::kMB, 0xda7a);

    // Tenant A at nodes [0,1), B at [1,2), C at [2,3).
    Deployment::Options ao{0, cl->register_tenant("A")};
    Deployment::Options bo{1, cl->register_tenant("B")};
    Deployment::Options co_opts{2, cl->register_tenant("C")};
    Deployment dep_a(*cl, 1, ao);
    Deployment dep_b(*cl, 1, bo);
    Deployment dep_c(*cl, 1, co_opts);
    cr::Session::Config sa, sb, sc;
    sa.job = "A";
    sa.retention.keep_last = 1;
    sa.auto_retention = false;  // swept explicitly below
    sb.job = "B";
    sc.job = "C";
    cr::Session ses_a(dep_a, sa);
    cr::Session ses_b(dep_b, sb);
    cr::Session ses_c(dep_c, sc);
    co_await dep_a.deploy_and_boot();
    co_await dep_b.deploy_and_boot();
    co_await dep_c.deploy_and_boot();

    // A publishes the dataset first; B commits the same content and dedups
    // against A's chunks — B's only physical copy of the shared content is
    // the one A stored.
    co_await dep_a.vm(0).fs()->write_file("/data/d.bin", dataset);
    co_await dep_a.vm(0).fs()->sync();
    (void)co_await ses_a.checkpoint("a1");
    co_await dep_b.vm(0).fs()->write_file("/data/d.bin", dataset);
    co_await dep_b.vm(0).fs()->sync();
    (void)co_await ses_b.checkpoint("b1");
    {
      const blob::BlobStore::TenantUsage u =
          cl->blob_store()->tenant_usage_snapshot(dep_b.tenant());
      *b_shipped = u.shipped_bytes;
      *b_raw = u.raw_bytes;
    }

    // C completes one checkpoint, then its drain dies at the Putting stage
    // boundary of the next one: pins and index entries of the dead drain
    // unwind right before A's sweep runs.
    co_await dep_c.vm(0).fs()->write_file("/data/d.bin", dataset);
    co_await dep_c.vm(0).fs()->sync();
    (void)co_await ses_c.checkpoint("c1");
    core::MirrorDevice* cm = dep_c.instance(0).mirror.get();
    EXPECT_NE(cm->flush_agent(), nullptr);
    if (cm->flush_agent() == nullptr) co_return;
    bool armed = true;
    cm->flush_agent()->set_stage_probe(
        [cl, cm, &armed, &never](blob::CommitStage s) -> Task<> {
          if (armed && s == blob::CommitStage::Putting) {
            armed = false;
            cl->simulation().call_in(0,
                                     [cm] { cm->flush_agent()->fail_stop(); });
            co_await never.wait();
          }
        });
    co_await dep_c.vm(0).fs()->write_file(
        "/data/extra.bin", Buffer::pattern(300'000, 0xc0de));
    co_await dep_c.vm(0).fs()->sync();
    try {
      (void)co_await ses_c.checkpoint("doomed");
    } catch (const blob::BlobError&) {
      *c_ckpt_threw = true;
    }

    // A churns two more checkpoints and sweeps: everything but A's newest
    // record retires, and its exclusive chunks are reclaimed.
    for (const std::uint64_t seed : {0xa2ULL, 0xa3ULL}) {
      co_await dep_a.vm(0).fs()->write_file(
          "/data/churn.bin", Buffer::pattern(1 * common::kMB, seed));
      co_await dep_a.vm(0).fs()->sync();
      (void)co_await ses_a.checkpoint();
    }
    *a_reclaimed = co_await ses_a.apply_retention();

    // B and C restart cold on fresh nodes from their own catalogs: the
    // shared dataset both published must still be there, bit for bit.
    dep_b.destroy_all();
    (void)co_await ses_b.restart(cr::Selector::latest(),
                                 {.node_offset = 10, .cold_caches = true});
    const Buffer b_back = co_await dep_b.vm(0).fs()->read_file("/data/d.bin");
    *b_restored = b_back == dataset;

    dep_c.destroy_all();
    (void)co_await ses_c.restart(cr::Selector::latest(),
                                 {.node_offset = 12, .cold_caches = true});
    const Buffer c_back = co_await dep_c.vm(0).fs()->read_file("/data/d.bin");
    *c_restored = c_back == dataset;
  }(&cloud, &b_restored, &c_restored, &c_ckpt_threw, &a_reclaimed, &b_shipped,
    &b_raw));

  EXPECT_LT(b_shipped, b_raw) << "B never deduped against A's chunks, so the "
                                 "sweep had nothing cross-tenant to spare";
  EXPECT_TRUE(c_ckpt_threw) << "drain kill never surfaced";
  EXPECT_GT(a_reclaimed, 0u) << "A's sweep reclaimed nothing";
  EXPECT_TRUE(b_restored)
      << "A's retention sweep reclaimed chunks B's version references";
  EXPECT_TRUE(c_restored)
      << "GC after the killed drain damaged C's last complete checkpoint";
}

// ---------------------------------------------------------------------------
// Per-tenant capacity ceilings: a resident-bytes quota refuses the commit
// that would cross it (typed error, checked at admission before the commit
// gate) and a catalog-records quota refuses staging past the record cap.
// An unquota'd tenant sharing the repository is never affected.
// ---------------------------------------------------------------------------

TEST(MultiTenantTest, CapacityQuotasRefuseCommitAndCatalogOverage) {
  Cloud cloud(repo_cfg(8));
  bool bytes_quota_threw = false, catalog_quota_threw = false;
  bool free_tenant_ok = false;
  std::size_t rcap_records = 0;

  cloud.run([](Cloud* cl, bool* bytes_quota_threw, bool* catalog_quota_threw,
               bool* free_tenant_ok, std::size_t* rcap_records) -> Task<> {
    co_await cl->provision_base_image();

    // Three tenants: "bcap" with a resident-bytes ceiling, "rcap" with a
    // catalog-records ceiling, "free" with none. (A checkpoint stages its
    // catalog record before committing data, so the two ceilings are
    // exercised on separate tenants to keep each refusal unambiguous.)
    Deployment::Options bcap_opts{0, cl->register_tenant("bcap")};
    Deployment::Options rcap_opts{1, cl->register_tenant("rcap")};
    Deployment::Options free_opts{2, cl->register_tenant("free")};
    cl->set_tenant_quota(bcap_opts.tenant, {/*max_resident_bytes=*/
                                            2 * common::kMB,
                                            /*max_catalog_records=*/0});
    cl->set_tenant_quota(rcap_opts.tenant, {0, /*max_catalog_records=*/2});
    Deployment dep_bcap(*cl, 1, bcap_opts);
    Deployment dep_rcap(*cl, 1, rcap_opts);
    Deployment dep_free(*cl, 1, free_opts);
    cr::Session::Config sb, sr, sf;
    sb.job = "bcap";
    sr.job = "rcap";
    sf.job = "free";
    cr::Session ses_bcap(dep_bcap, sb);
    cr::Session ses_rcap(dep_rcap, sr);
    cr::Session ses_free(dep_free, sf);
    co_await dep_bcap.deploy_and_boot();
    co_await dep_rcap.deploy_and_boot();
    co_await dep_free.deploy_and_boot();

    // bcap: a small checkpoint fits; the commit that would push resident
    // bytes past the ceiling is refused with the typed error at admission.
    co_await dep_bcap.vm(0).fs()->write_file(
        "/data/small.bin", Buffer::pattern(200'000, 0x51));
    co_await dep_bcap.vm(0).fs()->sync();
    (void)co_await ses_bcap.checkpoint();
    co_await dep_bcap.vm(0).fs()->write_file(
        "/data/big.bin", Buffer::pattern(4 * common::kMB, 0xb16));
    co_await dep_bcap.vm(0).fs()->sync();
    try {
      (void)co_await ses_bcap.checkpoint("over-bytes");
    } catch (const blob::QuotaExceededError&) {
      *bytes_quota_threw = true;
    }

    // rcap: two records fit; the third stage is refused before any durable
    // write, leaving the catalog untouched.
    for (const std::uint64_t seed : {0x61ULL, 0x62ULL, 0x63ULL}) {
      co_await dep_rcap.vm(0).fs()->write_file(
          "/data/r.bin", Buffer::pattern(150'000, seed));
      co_await dep_rcap.vm(0).fs()->sync();
      try {
        (void)co_await ses_rcap.checkpoint();
      } catch (const blob::QuotaExceededError&) {
        *catalog_quota_threw = true;
      }
    }
    *rcap_records = (co_await ses_rcap.catalog().list()).size();

    // The unquota'd tenant commits a dataset far past both ceilings
    // without friction.
    co_await dep_free.vm(0).fs()->write_file(
        "/data/huge.bin", Buffer::pattern(4 * common::kMB, 0xf4ee));
    co_await dep_free.vm(0).fs()->sync();
    (void)co_await ses_free.checkpoint();
    *free_tenant_ok = true;
  }(&cloud, &bytes_quota_threw, &catalog_quota_threw, &free_tenant_ok,
    &rcap_records));

  EXPECT_TRUE(bytes_quota_threw)
      << "resident-bytes ceiling never refused the oversized commit";
  EXPECT_TRUE(catalog_quota_threw)
      << "catalog-records ceiling never refused the third stage";
  EXPECT_EQ(rcap_records, 2u)
      << "a refused stage must leave the catalog untouched";
  EXPECT_TRUE(free_tenant_ok);
}

// The catalog-records ceiling counts only the records retention keeps
// (Staged and Complete): a tenant that retires checkpoints, as the refusal
// advises, can keep staging new ones under the same ceiling.
TEST(MultiTenantTest, RetiredRecordsFreeCatalogQuota) {
  Cloud cloud(repo_cfg(4));
  int passed = 0;

  cloud.run([](Cloud* cl, int* passed) -> Task<> {
    co_await cl->provision_base_image();
    Deployment::Options opts{0, cl->register_tenant("rcap")};
    cl->set_tenant_quota(opts.tenant, {0, /*max_catalog_records=*/2});
    Deployment dep(*cl, 1, opts);
    cr::Session::Config scfg;
    scfg.job = "rcap";
    scfg.retention.keep_last = 1;  // auto-retention after each checkpoint
    cr::Session session(dep, scfg);
    co_await dep.deploy_and_boot();

    for (const std::uint64_t seed : {0x71ULL, 0x72ULL, 0x73ULL, 0x74ULL}) {
      co_await dep.vm(0).fs()->write_file(
          "/data/r.bin", Buffer::pattern(150'000, seed));
      co_await dep.vm(0).fs()->sync();
      try {
        (void)co_await session.checkpoint();
        ++*passed;
      } catch (const blob::QuotaExceededError&) {
      }
    }
  }(&cloud, &passed));

  EXPECT_EQ(passed, 4) << "retired records still count against the quota";
}

}  // namespace
}  // namespace blobcr
