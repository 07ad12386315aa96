// Ablation: the asynchronous commit pipeline (src/flush/) on the Figure 5
// successive-checkpoints workload — one VM, a data buffer refilled and
// checkpointed four times in a row.
//
// Reported per round and per mode (sync / async):
//   blocked_s  — app-blocked time: how long the VM sat paused for the
//                snapshot request (synchronous commits hold the pause
//                through reduce/ship/publish; the async pipeline only
//                through the local staging capture);
//   publish_s  — end-to-end time from the snapshot request until the
//                version is fully published (what Fig 5a plots);
//   plus a summary row with the blocked-time speedup and a digest match
//   flag: both modes restart from their last checkpoint and must restore
//   the identical buffer, bit for bit.
//
// BLOBCR_BENCH_FAST=1 shrinks the buffer for CI smoke runs.
#include "bench_common.h"

#include "blob/client.h"
#include "cr/remap.h"

namespace blobcr::bench {
namespace {

constexpr int kRounds = 4;

struct SeriesResult {
  std::vector<sim::Duration> blocked;
  std::vector<sim::Duration> publish;
  std::uint64_t restored_digest = 0;
  bool restore_verified = false;
};

SeriesResult run_series(bool async) {
  core::CloudConfig cfg = paper_cloud(Backend::BlobCR, 1500 * 1000);
  cfg.flush.enabled = async;
  core::Cloud cloud(cfg);
  const std::uint64_t buf =
      fast_mode() ? 8 * common::kMB : 64 * common::kMB;

  SeriesResult out;
  cloud.run([](core::Cloud* cl, std::uint64_t buf,
               SeriesResult* out) -> sim::Task<> {
    co_await cl->provision_base_image();
    core::Deployment dep(*cl, 1);
    co_await dep.deploy_and_boot();

    std::uint64_t written_digest = 0;
    for (int round = 0; round < kRounds; ++round) {
      // Refill the buffer with fresh (real) data, dump, sync.
      common::Buffer data =
          common::Buffer::pattern(buf, 0xf11e + static_cast<unsigned>(round));
      written_digest = data.digest();
      guestfs::SimpleFs* fs = dep.vm(0).fs();
      co_await fs->write_file("/data/buffer.bin", std::move(data));
      co_await fs->sync();

      const sim::Time t0 = cl->simulation().now();
      const core::InstanceSnapshot snap = co_await dep.snapshot_instance(0);
      out->blocked.push_back(snap.vm_downtime);
      co_await dep.wait_drained(0);
      out->publish.push_back(cl->simulation().now() - t0);
    }

    // Restart from the last checkpoint on fresh nodes; the restored buffer
    // must be the bit-exact final round.
    const core::GlobalCheckpoint ckpt = dep.collect_last_snapshots();
    dep.destroy_all();
    const core::RestartPlan plan =
        cr::build_restart_plan(ckpt.snapshots, ckpt.snapshots.size());
    co_await dep.restart_from(plan, 7);
    const common::Buffer back =
        co_await dep.vm(0).fs()->read_file("/data/buffer.bin");
    out->restored_digest = back.digest();
    out->restore_verified = back.digest() == written_digest;
  }(&cloud, buf, &out));
  return out;
}

void register_all() {
  auto sync_res = std::make_shared<SeriesResult>();
  auto async_res = std::make_shared<SeriesResult>();
  auto ensure = [sync_res, async_res] {
    if (sync_res->blocked.empty()) *sync_res = run_series(false);
    if (async_res->blocked.empty()) *async_res = run_series(true);
  };

  // Every row carries the same counter set (the CSV reporter requires it):
  // its own blocked/publish times, the per-round blocked-time speedup
  // (sync blocked / async blocked of the same round) and the cross-mode
  // restored-digest match flag.
  for (const bool async : {false, true}) {
    for (int round = 1; round <= kRounds; ++round) {
      const std::string name =
          std::string("AsyncFlush/") + (async ? "pipeline" : "sync") +
          "/checkpoint:" + std::to_string(round);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [async, round, sync_res, async_res, ensure](benchmark::State& state) {
            ensure();
            const SeriesResult& r = async ? *async_res : *sync_res;
            report_seconds(state, r.publish.at(round - 1));
            state.counters["blocked_s"] =
                sim::to_seconds(r.blocked.at(round - 1));
            state.counters["publish_s"] =
                sim::to_seconds(r.publish.at(round - 1));
            const double a = sim::to_seconds(async_res->blocked.at(round - 1));
            const double s = sim::to_seconds(sync_res->blocked.at(round - 1));
            state.counters["blocked_speedup"] = a > 0 ? s / a : 0;
            state.counters["digests_match"] =
                (sync_res->restore_verified && async_res->restore_verified &&
                 sync_res->restored_digest == async_res->restored_digest)
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
