// Figure 2: completion time to checkpoint an increasing number of processes
// (synthetic benchmark, one process per VM, data buffers of 50 MB and
// 200 MB). Paper expectations: qcow2-full worst by far; BlobCR-blcr beats
// qcow2-disk-blcr (~40% at 50 MB/120 procs, ~2x at 200 MB); BlobCR-app
// roughly matches qcow2-disk-app at 50 MB, ~60% faster at 200 MB/120 procs.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

void run_point(benchmark::State& state, const Approach& approach,
               std::size_t instances, std::uint64_t buffer_bytes) {
  core::Cloud cloud(paper_cloud(approach.backend));
  apps::SyntheticRun run;
  run.instances = instances;
  run.buffer_bytes = buffer_bytes;
  const apps::RunResult result =
      apps::run_synthetic(cloud, run, approach.mode);
  report_seconds(state, result.checkpoint_times.at(0));
  state.counters["ckpt_s"] = sim::to_seconds(result.checkpoint_times.at(0));
  state.counters["snap_MB_per_vm"] = mb(result.snapshot_bytes_per_vm.at(0));
  // App-blocked share of the checkpoint (the longest VM pause) — gated in
  // CI alongside the shipped-bytes counter above.
  state.counters["blocked_s"] =
      sim::to_seconds(result.checkpoint_blocked_times.at(0));
}

void register_all() {
  for (const std::uint64_t buf : {50 * common::kMB, 200 * common::kMB}) {
    for (const Approach& approach : five_approaches()) {
      for (const std::size_t n : instance_sweep()) {
        const std::string name =
            "Fig2/" + std::string(approach.name) + "/buf_mb:" +
            std::to_string(buf / common::kMB) + "/procs:" + std::to_string(n);
        benchmark::RegisterBenchmark(
            name.c_str(),
            [approach, n, buf](benchmark::State& state) {
              run_point(state, approach, n, buf);
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
