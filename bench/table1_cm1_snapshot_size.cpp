// Table 1: CM1 per disk-snapshot size. Paper measurements:
//   BlobCR-app      52 MB      qcow2-disk-app   45 MB
//   BlobCR-blcr    127 MB      qcow2-disk-blcr 120 MB
// Four ranks per VM at ~12 MB of application state each; blcr additionally
// dumps each rank's runtime image; BlobCR carries a ~5-15% granularity
// overhead (256 KB chunks vs qcow2's 64 KB clusters).
#include "bench_common.h"

namespace blobcr::bench {
namespace {

constexpr std::uint64_t kCm1ProcessOverhead = 19 * common::kMB;

void run_point(benchmark::State& state, const Approach& approach) {
  core::Cloud cloud(paper_cloud(approach.backend, kCm1ProcessOverhead));
  apps::Cm1Run run;
  run.vms = fast_mode() ? 2 : 4;
  run.ranks_per_vm = 4;
  run.app.real_data = false;
  run.app.summary_interval = 3;
  run.app.summary_bytes = 256 * 1024;
  run.iterations = fast_mode() ? 3 : 6;
  const apps::RunResult result = apps::run_cm1(cloud, run, approach.mode);
  report_seconds(state, result.checkpoint_times.at(0));
  state.counters["snapshot_MB_per_vm"] =
      mb(result.snapshot_bytes_per_vm.at(0));
}

void register_all() {
  for (const Approach& approach : four_approaches()) {
    const std::string name = "Table1/" + std::string(approach.name);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [approach](benchmark::State& state) {
                                   run_point(state, approach);
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
