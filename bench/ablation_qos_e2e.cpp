// Capstone ablation: end-to-end QoS through the unified admission plane
// (src/qos/admission.h).
//
// One small interactive tenant (1 instance, 1 MB commits, mid-job rollback
// cycles) shares the repository with K bulk tenants that checkpoint
// back-to-back AND cycle cold restarts on the same cadence — a concurrent
// mass-rollback storm. Every repository touch is admitted at the plane:
// commits at the commit gate, chunk stores/fetches at the provider-io gate,
// restart prefetch at the restart-prefetch gate. The sweep runs each K once
// with weighted-fair ordering (qos on) and once FIFO at identical per-gate
// capacity (qos off).
//
// Reported per row (QosE2E/bulk{K}/{fair|fifo}):
//   small_job_p99_commit_s  — small tenant's p99 commit blocked-time
//   small_job_p99_restart_s — small tenant's p99 cold-restart makespan
//   qos_commit_gain / qos_restart_gain — fifo/fair ratios at this K
//   provider_wait_s / prefetch_wait_s — small tenant's data-path queueing
//   verified — every job of both runs restored bit-exactly AND fairness
//   held the small tenant's p99 at or below FIFO on BOTH axes (commit and
//   restart) at equal capacity. The CI gate refuses a flip to 0.
//
// BLOBCR_BENCH_FAST=1 shrinks the sweep, buffers and rounds for CI smoke.
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "apps/multi_job.h"

namespace blobcr::bench {
namespace {

double p99(std::vector<sim::Duration> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(std::max(
      0.0, std::ceil(0.99 * static_cast<double>(samples.size())) - 1.0));
  return sim::to_seconds(samples[idx]);
}

std::vector<std::size_t> bulk_sweep() {
  if (fast_mode()) return {1, 2};
  return {1, 2, 4};
}

struct E2eResult {
  double commit_p99_s = 0;   // small job's p99 commit blocked-time
  double restart_p99_s = 0;  // small job's p99 cold-restart makespan
  double provider_wait_s = 0;
  double prefetch_wait_s = 0;
  bool verified = false;
  bool done = false;
};

E2eResult run_e2e(std::size_t bulk_jobs, bool fair) {
  apps::MultiJobRun run;
  run.shared_fraction = 0.3;  // a common input dataset across tenants

  for (std::size_t k = 0; k < bulk_jobs; ++k) {
    apps::TenantJobSpec bulk;
    bulk.name = "bulk" + std::to_string(k);
    bulk.instances = 3;
    bulk.buffer_bytes = fast_mode() ? 4 * common::kMB : 16 * common::kMB;
    bulk.rounds = fast_mode() ? 4 : 6;
    bulk.restart_every = 2;  // the concurrent mass-rollback storm
    bulk.stagger = k * 500 * sim::kMillisecond;
    run.jobs.push_back(bulk);
  }

  apps::TenantJobSpec small;
  small.name = "small";
  // The interactive tenant pays for priority: weighted-fair ordering can
  // honor the 4x share, the FIFO baseline structurally cannot — that gap
  // is exactly what the ablation measures.
  small.weight = 4.0;
  small.instances = 1;
  small.buffer_bytes = 1 * common::kMB;
  small.rounds = fast_mode() ? 6 : 8;
  small.restart_every = 2;  // interactive tenant rolls back too
  // Land after the storm's cold-start transient so the tail measures the
  // steady-state ordering policy, not one startup alignment.
  small.stagger = 2 * sim::kSecond;
  small.think_time = 200 * sim::kMillisecond;
  run.jobs.push_back(small);

  core::CloudConfig cfg = paper_cloud(Backend::BlobCR);
  cfg.reduction.enabled = true;
  cfg.qos.enabled = fair;
  // Identical capacity in both modes: only the ordering policy differs.
  // The commit gate is left wide (no tenant ever queues there) so
  // arbitration happens at the provider gate's per-chunk granularity —
  // a narrow commit gate measures slot residency of whichever multi-MB
  // commit is mid-flight (unpreemptible in both modes), not ordering.
  cfg.qos.commit_slots = 8;
  cfg.qos.provider_slots = 2;
  cfg.qos.prefetch_slots = 2;
  core::Cloud cloud(cfg);
  const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

  E2eResult out;
  const apps::JobResult& sj = result.jobs.back();  // the small tenant
  out.commit_p99_s = p99(sj.blocked_times);
  out.restart_p99_s = p99(sj.restart_times);
  out.provider_wait_s = sim::to_seconds(sj.usage.provider_wait);
  out.prefetch_wait_s = sim::to_seconds(sj.usage.prefetch_wait);
  out.verified = result.all_verified();
  out.done = true;
  return out;
}

void register_all() {
  for (const std::size_t k : bulk_sweep()) {
    auto fair = std::make_shared<E2eResult>();
    auto fifo = std::make_shared<E2eResult>();
    auto ensure = [k, fair, fifo] {
      if (!fair->done) {
        *fair = run_e2e(k, true);
        *fifo = run_e2e(k, false);
      }
    };
    for (const bool is_fair : {true, false}) {
      const std::string name = "QosE2E/bulk" + std::to_string(k) +
                               (is_fair ? "/fair" : "/fifo");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [is_fair, fair, fifo, ensure](benchmark::State& state) {
            ensure();
            const E2eResult& r = is_fair ? *fair : *fifo;
            report_seconds(state, static_cast<sim::Duration>(
                                      r.restart_p99_s * sim::kSecond));
            state.counters["small_job_p99_commit_s"] = r.commit_p99_s;
            state.counters["small_job_p99_restart_s"] = r.restart_p99_s;
            state.counters["provider_wait_s"] = r.provider_wait_s;
            state.counters["prefetch_wait_s"] = r.prefetch_wait_s;
            state.counters["qos_commit_gain"] =
                fair->commit_p99_s > 0
                    ? fifo->commit_p99_s / fair->commit_p99_s
                    : 0;
            state.counters["qos_restart_gain"] =
                fair->restart_p99_s > 0
                    ? fifo->restart_p99_s / fair->restart_p99_s
                    : 0;
            state.counters["verified"] =
                (fair->verified && fifo->verified &&
                 fair->commit_p99_s <= fifo->commit_p99_s &&
                 fair->restart_p99_s <= fifo->restart_p99_s)
                    ? 1
                    : 0;
          })
          ->UseManualTime()
          ->Iterations(1)
          ->Unit(benchmark::kSecond);
    }
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
