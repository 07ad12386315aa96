// Ablation A4: snapshot garbage collection (the paper's §6 future work).
// After several checkpoint rounds, reclaim the space of versions obsoleted
// by newer checkpoints while keeping everything shared with the base image
// or other snapshots alive.
#include "bench_common.h"

#include "blob/gc.h"

namespace blobcr::bench {
namespace {

struct GcOutcome {
  std::uint64_t repo_before = 0;
  std::uint64_t repo_after = 0;
  std::uint64_t reclaimed = 0;
  sim::Duration run_time = 0;
};

GcOutcome run_gc(int rounds, int keep_last) {
  core::Cloud cloud(paper_cloud(Backend::BlobCR));
  auto outcome = std::make_shared<GcOutcome>();
  cloud.run([](core::Cloud* cl, int n_rounds, int keep,
               std::shared_ptr<GcOutcome> out) -> sim::Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, 4);
    co_await dep.deploy_and_boot();
    const sim::Time t0 = cl->simulation().now();
    for (int round = 0; round < n_rounds; ++round) {
      for (std::size_t i = 0; i < dep.size(); ++i) {
        guestfs::SimpleFs* fs = dep.vm(i).fs();
        co_await fs->write_file(
            "/data/state.bin",
            common::Buffer::phantom(50 * common::kMB));
        co_await fs->sync();
        (void)co_await dep.snapshot_instance(i);
      }
    }
    out->repo_before = cl->repository_bytes();
    // Keep only the last `keep` versions of each checkpoint image, all four
    // images in one GC epoch.
    const auto kept = static_cast<blob::VersionId>(keep);
    std::vector<blob::GarbageCollector::Drop> drops;
    for (std::size_t i = 0; i < dep.size(); ++i) {
      const core::InstanceSnapshot& snap = dep.instance(i).last_snapshot;
      if (snap.version > kept) {
        drops.push_back({snap.image, snap.version - kept + 1});
      }
    }
    blob::GarbageCollector gc(*cl->blob_store());
    out->reclaimed = (co_await gc.collect(std::move(drops))).reclaimed_bytes;
    out->repo_after = cl->repository_bytes();
    out->run_time = cl->simulation().now() - t0;
  }(&cloud, rounds, keep_last, outcome));
  return *outcome;
}

void register_all() {
  for (const int keep : {1, 2, 4}) {
    const std::string name = "AblationGc/rounds:4/keep_last:" +
                             std::to_string(keep);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [keep](benchmark::State& state) {
          const GcOutcome out = run_gc(4, keep);
          report_seconds(state, out.run_time);
          state.counters["repo_before_MB"] = mb(out.repo_before);
          state.counters["repo_after_MB"] = mb(out.repo_after);
          state.counters["reclaimed_MB"] = mb(out.reclaimed);
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
