// Ablation: the multi-tenant repository (src/apps/multi_job.h).
//
// Two experiments on K concurrent jobs sharing ONE BlobStore:
//
//  * dedup — an overlapping workload (every job loads the same input
//    dataset, shared_fraction of each rank's buffer) runs once with the
//    repository-scoped digest index (cross-job dedup) and once with
//    isolated per-deployment indices. Reported: post-reduction repository
//    bytes shipped per job. The shared index must ship strictly less —
//    overlapping content stores once repository-wide instead of once per
//    job.
//
//  * qos — a bulk tenant (many instances, back-to-back rounds) runs beside
//    a small interactive tenant, with the commit gate bounded either
//    weighted-fair (QoS on) or FIFO (QoS off; identical capacity).
//    Reported: the small job's p95 commit blocked-time. Fairness must keep
//    the small tenant's pause below the FIFO value — its single commit
//    overtakes the bulk backlog at the gate.
//
// Every row carries `verified`: all jobs of all runs restored bit-exactly
// AND the row's headline inequality holds (shared < isolated, fair <=
// fifo) — the CI gate refuses a flip to 0.
//
// BLOBCR_BENCH_FAST=1 shrinks buffers and rounds for CI smoke runs.
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "apps/multi_job.h"

namespace blobcr::bench {
namespace {

double p95(std::vector<sim::Duration> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(std::max(
      0.0, std::ceil(0.95 * static_cast<double>(samples.size())) - 1.0));
  return sim::to_seconds(samples[idx]);
}

core::CloudConfig tenant_cloud() {
  core::CloudConfig cfg = paper_cloud(Backend::BlobCR);
  cfg.reduction.enabled = true;
  return cfg;
}

// --- dedup: shared vs isolated digest index --------------------------------

struct DedupResult {
  double repo_mb_per_job = 0;   // post-reduction shipped bytes per job
  double ckpt_s = 0;            // mean commit completion time
  bool verified = false;
};

DedupResult run_dedup(bool shared_index) {
  const std::uint64_t buf = fast_mode() ? 4 * common::kMB : 32 * common::kMB;
  apps::MultiJobRun run;
  run.shared_fraction = 0.6;
  for (int k = 0; k < 3; ++k) {
    apps::TenantJobSpec spec;
    spec.name = "job" + std::to_string(k);
    spec.instances = fast_mode() ? 1 : 2;
    spec.buffer_bytes = buf;
    spec.rounds = 2;
    spec.stagger = k * 3 * sim::kSecond;  // staggered arrivals
    run.jobs.push_back(spec);
  }

  core::CloudConfig cfg = tenant_cloud();
  cfg.reduction.shared_index = shared_index;
  core::Cloud cloud(cfg);
  const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

  DedupResult out;
  std::uint64_t shipped = 0;
  sim::Duration ckpt = 0;
  std::size_t rounds = 0;
  for (const apps::JobResult& job : result.jobs) {
    shipped += job.usage.shipped_bytes;
    for (const sim::Duration d : job.checkpoint_times) {
      ckpt += d;
      ++rounds;
    }
  }
  out.repo_mb_per_job =
      mb(shipped) / static_cast<double>(result.jobs.size());
  out.ckpt_s = rounds > 0 ? sim::to_seconds(ckpt) / rounds : 0.0;
  out.verified = result.all_verified();
  return out;
}

// --- qos: weighted-fair vs FIFO commit admission ---------------------------

struct QosResult {
  double blocked_p95_s = 0;   // small job's p95 commit blocked-time
  double blocked_mean_s = 0;
  bool verified = false;
};

QosResult run_qos(bool fair) {
  apps::MultiJobRun run;
  apps::TenantJobSpec bulk;
  bulk.name = "bulk";
  bulk.weight = 1.0;
  bulk.instances = 4;
  bulk.buffer_bytes = fast_mode() ? 4 * common::kMB : 32 * common::kMB;
  bulk.rounds = fast_mode() ? 3 : 4;
  apps::TenantJobSpec small;
  small.name = "small";
  small.weight = 1.0;
  small.instances = 1;
  small.buffer_bytes = 1 * common::kMB;
  small.rounds = 6;
  small.stagger = 1 * sim::kSecond;  // arrive while the bulk job commits
  small.think_time = 200 * sim::kMillisecond;
  run.jobs = {bulk, small};

  core::CloudConfig cfg = tenant_cloud();
  cfg.qos.enabled = fair;
  cfg.qos.commit_slots = 2;  // identical capacity in both modes
  core::Cloud cloud(cfg);
  const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

  QosResult out;
  const apps::JobResult& sj = result.jobs[1];
  out.blocked_p95_s = p95(sj.blocked_times);
  sim::Duration total = 0;
  for (const sim::Duration d : sj.blocked_times) total += d;
  out.blocked_mean_s =
      sj.blocked_times.empty()
          ? 0.0
          : sim::to_seconds(total) / static_cast<double>(sj.blocked_times.size());
  out.verified = result.all_verified();
  return out;
}

void register_all() {
  auto shared = std::make_shared<DedupResult>();
  auto isolated = std::make_shared<DedupResult>();
  auto ensure_dedup = [shared, isolated] {
    if (!shared->verified && shared->repo_mb_per_job == 0) {
      *shared = run_dedup(true);
      *isolated = run_dedup(false);
    }
  };
  for (const bool is_shared : {true, false}) {
    const std::string name = std::string("Multitenant/dedup/") +
                             (is_shared ? "shared-index" : "isolated-index");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [is_shared, shared, isolated, ensure_dedup](benchmark::State& state) {
          ensure_dedup();
          const DedupResult& r = is_shared ? *shared : *isolated;
          report_seconds(state, static_cast<sim::Duration>(
                                    r.ckpt_s * sim::kSecond));
          state.counters["repo_mb_per_job"] = r.repo_mb_per_job;
          state.counters["ckpt_s"] = r.ckpt_s;
          state.counters["verified"] =
              (shared->verified && isolated->verified &&
               shared->repo_mb_per_job < isolated->repo_mb_per_job)
                  ? 1
                  : 0;
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }

  auto fair = std::make_shared<QosResult>();
  auto fifo = std::make_shared<QosResult>();
  auto ensure_qos = [fair, fifo] {
    if (!fair->verified && fair->blocked_p95_s == 0) {
      *fair = run_qos(true);
      *fifo = run_qos(false);
    }
  };
  for (const bool is_fair : {true, false}) {
    const std::string name =
        std::string("Multitenant/qos/") + (is_fair ? "fair" : "fifo");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [is_fair, fair, fifo, ensure_qos](benchmark::State& state) {
          ensure_qos();
          const QosResult& r = is_fair ? *fair : *fifo;
          report_seconds(state, static_cast<sim::Duration>(
                                    r.blocked_p95_s * sim::kSecond));
          state.counters["blocked_p95_s"] = r.blocked_p95_s;
          state.counters["blocked_s"] = r.blocked_mean_s;
          state.counters["qos_gain"] =
              fair->blocked_p95_s > 0
                  ? fifo->blocked_p95_s / fair->blocked_p95_s
                  : 0;
          state.counters["verified"] =
              (fair->verified && fifo->verified &&
               fair->blocked_p95_s <= fifo->blocked_p95_s)
                  ? 1
                  : 0;
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
}

}  // namespace
}  // namespace blobcr::bench

int main(int argc, char** argv) {
  blobcr::bench::register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
