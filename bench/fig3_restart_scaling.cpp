// Figure 3: completion time to restart an increasing number of processes
// from the previously saved snapshots, re-deployed on different compute
// nodes (redeploy + reboot + state restore; qcow2-full resumes without
// reboot but must pull the much larger full snapshot). Paper expectations:
// BlobCR >25% faster than qcow2-disk at 50 MB, ~2x at 200 MB; qcow2-full
// worst despite skipping the reboot.
#include "bench_common.h"

namespace blobcr::bench {
namespace {

void run_point(benchmark::State& state, const Approach& approach,
               std::size_t instances, std::uint64_t buffer_bytes) {
  core::Cloud cloud(paper_cloud(approach.backend));
  apps::SyntheticRun run;
  run.instances = instances;
  run.buffer_bytes = buffer_bytes;
  run.do_restart = true;
  run.restart_shift = instances / 2 + 1;  // fresh nodes, no local cache
  const apps::RunResult result =
      apps::run_synthetic(cloud, run, approach.mode);
  report_seconds(state, result.restart_time);
  state.counters["restart_s"] = sim::to_seconds(result.restart_time);
  // The content-addressed data plane's transfer split (zero for the qcow
  // baselines): repository wire bytes vs intra-deployment peer copies.
  state.counters["repo_mb_per_inst"] =
      mb(result.restart.repo) / static_cast<double>(instances);
  state.counters["peer_mb_per_inst"] =
      mb(result.restart.peer) / static_cast<double>(instances);
}

void register_all() {
  for (const std::uint64_t buf : {50 * common::kMB, 200 * common::kMB}) {
    for (const Approach& approach : five_approaches()) {
      for (const std::size_t n : instance_sweep()) {
        const std::string name =
            "Fig3/" + std::string(approach.name) + "/buf_mb:" +
            std::to_string(buf / common::kMB) + "/hosts:" + std::to_string(n);
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
