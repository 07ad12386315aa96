// Figure 6: CM1 checkpoint performance for an increasing number of
// processes — weak scaling with 50x50 horizontal subdomains per rank, four
// ranks per quad-core VM, checkpoint taken after a period of execution.
// Paper expectations: all approaches grow with process count (coordination
// cost); BlobCR-app >10% faster than qcow2-disk-app at 400 processes;
// BlobCR-blcr >2x faster than qcow2-disk-blcr.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

/// Per-rank runtime image: Table 1 shows blcr dumps ~127 MB per VM vs
/// ~52 MB app-level for 4 ranks => ~19 MB of non-application memory per
/// rank (libraries, MPI buffers, stack).
constexpr std::uint64_t kCm1ProcessOverhead = 19 * common::kMB;

apps::Cm1Run make_run(std::size_t vms) {
  apps::Cm1Run run;
  run.vms = vms;
  run.ranks_per_vm = 4;
  run.app.nx = 50;
  run.app.ny = 50;
  run.app.nz = 40;
  run.app.nvars = 15;  // ~12 MB of prognostic state per rank
  run.app.real_data = false;
  run.app.iteration_compute = 400 * sim::kMillisecond;
  run.app.summary_interval = 3;
  run.app.summary_bytes = 256 * 1024;
  run.iterations = fast_mode() ? 3 : 6;
  return run;
}

void run_point(benchmark::State& state, const Approach& approach,
               std::size_t vms) {
  core::Cloud cloud(paper_cloud(approach.backend, kCm1ProcessOverhead));
  const apps::RunResult result =
      apps::run_cm1(cloud, make_run(vms), approach.mode);
  report_seconds(state, result.checkpoint_times.at(0));
  state.counters["ckpt_s"] = sim::to_seconds(result.checkpoint_times.at(0));
  state.counters["snap_MB_per_vm"] = mb(result.snapshot_bytes_per_vm.at(0));
}

void register_all() {
  for (const Approach& approach : four_approaches()) {
    for (const std::size_t vms : cm1_vm_sweep()) {
      const std::string name = "Fig6/" + std::string(approach.name) +
                               "/procs:" + std::to_string(vms * 4);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [approach, vms](benchmark::State& state) {
            run_point(state, approach, vms);
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
