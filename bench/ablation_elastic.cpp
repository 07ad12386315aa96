// Ablation A9: elastic (N -> M) restart through the content-addressed
// plane (ROADMAP item "elastic restart", cr/remap.h).
//
// One synthetic job checkpoints at width N and restarts at width M through
// cr::Session's elastic path. Three remap shapes on the BlobCR backend —
// shrink (spot reclaim, M < N: trailing shards ride along as attached
// volumes), equal (M == N: degenerates to the classic 1:1 path) and grow
// (queue drain, M > N: clones derive fresh checkpoint images) — each with
// cold caches (machines reclaimed, every byte re-fetched) plus a warm-cache
// shrink (survivor caches keep serving peer copies across the rescale), and
// a qcow2-disk shrink baseline for comparison.
//
// The `verified` gate requires every run to digest-check the *union* of
// device images across the remap (each of the N sources covered by exactly
// one boot device or attached volume) and the post-rescale checkpoint to
// record exactly M tuples. Headline counters: rescale restart makespan and
// repository MB pulled per new instance.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

using apps::ElasticResult;
using apps::ElasticRun;
using core::Cloud;
using core::CloudConfig;

ElasticResult run_shape(Backend backend, std::size_t n, std::size_t m,
                        std::uint64_t buffer_bytes, bool cold) {
  CloudConfig cfg = paper_cloud(backend);
  Cloud cloud(cfg);
  ElasticRun run;
  run.instances = n;
  run.restart_instances = m;
  run.buffer_bytes = buffer_bytes;
  run.real_data = true;  // digest-verify the union of device images
  run.cold_caches = cold;
  run.recheckpoint = true;  // assert the M-tuple catalog invariant too
  return apps::run_elastic(cloud, run);
}

void register_all() {
  const std::size_t n = fast_mode() ? 4 : 8;
  const std::uint64_t buffer_bytes = (fast_mode() ? 20 : 50) * common::kMB;

  benchmark::RegisterBenchmark(
      "AblationElastic/rescale-restart",
      [n, buffer_bytes](benchmark::State& state) {
        const std::size_t m_small = n / 2;
        const ElasticResult shrink =
            run_shape(Backend::BlobCR, n, m_small, buffer_bytes, true);
        const ElasticResult equal =
            run_shape(Backend::BlobCR, n, n, buffer_bytes, true);
        const ElasticResult grow =
            run_shape(Backend::BlobCR, m_small, n, buffer_bytes, true);
        const ElasticResult warm =
            run_shape(Backend::BlobCR, n, m_small, buffer_bytes, false);
        const ElasticResult qcow =
            run_shape(Backend::Qcow2Disk, n, m_small, buffer_bytes, true);
        const bool all_verified = shrink.verified && equal.verified &&
                                  grow.verified && warm.verified &&
                                  qcow.verified;
        const bool tuples_ok = shrink.tuples_after == m_small &&
                               equal.tuples_after == n &&
                               grow.tuples_after == n &&
                               warm.tuples_after == m_small &&
                               qcow.tuples_after == m_small;
        // Warm survivor caches must not pull more repository bytes than the
        // cold rescale — the peer tier keeps working across a remap.
        const bool warm_cheaper =
            warm.restart.repo <= shrink.restart.repo;

        report_seconds(state, shrink.restart_time);
        state.counters["rescale_restart_s"] =
            sim::to_seconds(shrink.restart_time);
        state.counters["equal_restart_s"] = sim::to_seconds(equal.restart_time);
        state.counters["grow_restart_s"] = sim::to_seconds(grow.restart_time);
        state.counters["warm_restart_s"] = sim::to_seconds(warm.restart_time);
        state.counters["qcow_restart_s"] = sim::to_seconds(qcow.restart_time);
        state.counters["repo_mb_per_inst"] =
            mb(shrink.restart.repo) / static_cast<double>(m_small);
        state.counters["warm_repo_mb_per_inst"] =
            mb(warm.restart.repo) / static_cast<double>(m_small);
        state.counters["grow_repo_mb_per_inst"] =
            mb(grow.restart.repo) / static_cast<double>(n);
        state.counters["warm_peer_mb"] = mb(warm.restart.peer);
        state.counters["verified"] =
            (all_verified && tuples_ok && warm_cheaper) ? 1 : 0;
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kSecond);
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
