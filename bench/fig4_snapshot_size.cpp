// Figure 4: snapshot size per VM instance for 50 MB and 200 MB data
// buffers. Paper expectations: app-level ~= buffer + FS noise (BlobCR
// carries a few MB more than qcow2 because differences are kept at 256 KB
// chunk granularity vs 64 KB clusters); blcr adds a small constant over
// app-level for this synthetic workload; qcow2-full adds ~118 MB of RAM
// and device state regardless of buffer size.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

void run_point(benchmark::State& state, const Approach& approach,
               std::uint64_t buffer_bytes) {
  // blcr adds <2 MB of process overhead here (paper).
  core::Cloud cloud(paper_cloud(approach.backend,
                                /*process_overhead=*/1500 * 1000));
  apps::SyntheticRun run;
  run.instances = fast_mode() ? 2 : 8;
  run.buffer_bytes = buffer_bytes;
  const apps::RunResult result =
      apps::run_synthetic(cloud, run, approach.mode);
  report_seconds(state, result.checkpoint_times.at(0));
  state.counters["snapshot_MB_per_vm"] =
      mb(result.snapshot_bytes_per_vm.at(0));
}

void register_all() {
  for (const std::uint64_t buf : {50 * common::kMB, 200 * common::kMB}) {
    for (const Approach& approach : five_approaches()) {
      const std::string name = "Fig4/" + std::string(approach.name) +
                               "/buf_mb:" + std::to_string(buf / common::kMB);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [approach, buf](benchmark::State& state) {
            run_point(state, approach, buf);
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
