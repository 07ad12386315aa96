// Ablation A2: the content-addressed restart data plane (§3.1.4 evolved)
// on/off for concurrent restart.
//
// "adaptive" = the full PrefetchBus: content-keyed hints, peer chunk
// exchange, deployment-wide single-flight repository fetches and the
// popularity-ordered restart scheduler. "demand-only" disables the bus, so
// every instance fetches everything from the repository on demand.
//
// Two workloads per mode:
//  * uniform: each rank checkpoints private (phantom) state — instances
//    still share the clone-derived base image chunks;
//  * dedup-heavy: every rank checkpoints the same real input dataset
//    through the reduction pipeline, so rank state collapses to one stored
//    copy — the stdchk-style scenario where per-instance repository bytes
//    should drop superlinearly with deployment size.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

void run_point(benchmark::State& state, bool prefetch, bool dedup_heavy,
               std::size_t instances) {
  core::CloudConfig cfg = paper_cloud(Backend::BlobCR);
  cfg.adaptive_prefetch = prefetch;
  apps::SyntheticRun run;
  run.instances = instances;
  run.do_restart = true;
  if (dedup_heavy) {
    cfg.reduction.enabled = true;
    run.buffer_bytes = 2 * common::kMB;  // real buffers: keep RAM bounded
    run.real_data = true;
    run.shared_fraction = 1.0;
  } else {
    run.buffer_bytes = 50 * common::kMB;
  }
  core::Cloud cloud(cfg);
  const apps::RunResult result =
      apps::run_synthetic(cloud, run, CkptMode::AppLevel);
  report_seconds(state, result.restart_time);
  state.counters["restart_s"] = sim::to_seconds(result.restart_time);
  state.counters["deploy_s"] = sim::to_seconds(result.deploy_time);
  state.counters["repo_mb_per_inst"] =
      mb(result.restart.repo) / static_cast<double>(instances);
  state.counters["peer_mb_per_inst"] =
      mb(result.restart.peer) / static_cast<double>(instances);
  // Bit-exact restore check (1 = every restored digest matched; phantom
  // runs verify trivially). The CI bench gate fails on any 0.
  state.counters["verified"] = result.verified ? 1.0 : 0.0;
}

void register_all() {
  const std::vector<std::size_t> sweep =
      fast_mode() ? std::vector<std::size_t>{4, 12}
                  : std::vector<std::size_t>{30, 90};
  for (const bool prefetch : {true, false}) {
    for (const bool dedup : {false, true}) {
      for (const std::size_t n : sweep) {
        const std::string name =
            std::string("AblationPrefetch/") +
            (prefetch ? "adaptive" : "demand-only") + "/" +
            (dedup ? "dedup-heavy" : "uniform") + "/hosts:" +
            std::to_string(n);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [prefetch, dedup, n](benchmark::State& state) {
              run_point(state, prefetch, dedup, n);
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kSecond);
      }
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
