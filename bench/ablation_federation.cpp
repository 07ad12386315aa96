// Ablation: cross-repo federation — zone count x replication aggressiveness
// (ROADMAP item "cross-repo federation", the multi-zone BlobStore fabric).
//
// Each row runs the zone-loss drill: a job checkpoints in zone 0 through the
// async drain (manifests, catalog frames and floor chunk copies replicate to
// the buddy zone; with a hot budget, popularity-ordered extra copies land in
// the remaining zones), then zone 0's store dies wholesale and a FRESH
// driver restarts the lineage in the highest surviving zone with cold
// caches. The measured makespan covers restart + reading every instance's
// full state back (time to a warm, verified working set); `verified` gates
// bit-exactness of every restored state.
//
//  fed_z2_floor  2 zones, floor-only replication; restart lands in the buddy
//                zone, every fetch is already local.
//  fed_z3_floor  3 zones, floor-only; restart lands in zone 2 while the
//                floor copies live in buddy zone 1 — the whole working set
//                rides the WAN class during restart.
//  fed_z3_hot    3 zones + hot budget; the dirty working set was pushed to
//                zone 2 ahead of the failure, so the same restart serves it
//                locally and only the cold remainder crosses the WAN.
//
// The headline claim, gated by `verified` on the z3-hot row: hot-chunk
// replication makes the zone-loss restart strictly faster and lighter on
// the WAN than floor-only replication at the same zone count.
#include "bench_common.h"

#include <memory>
#include <utility>

#include "cr/session.h"
#include "federation/federation.h"
#include "guestfs/simplefs.h"

namespace blobcr::bench {
namespace {

using common::Buffer;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

struct Drill {
  std::size_t zones = 2;
  std::uint64_t hot_budget = 0;
  std::size_t nodes_per_zone = 8;
  std::size_t instances = 4;
  std::uint64_t state_bytes = 24 * common::kMB;
};

struct Outcome {
  sim::Duration restart = 0;          // zone-loss restart -> warm state
  std::uint64_t cross_zone_bytes = 0; // all federation WAN traffic, lifetime
  std::uint64_t restart_wan_bytes = 0;  // WAN share of the restart path
  bool ok = false;
};

Outcome run_drill(const Drill& d) {
  CloudConfig cfg;
  cfg.compute_nodes = d.zones * d.nodes_per_zone;
  cfg.metadata_nodes = 4;
  cfg.backend = Backend::BlobCR;
  cfg.flush.enabled = true;  // zone failover needs drained manifests
  cfg.federation.zones = d.zones;
  cfg.federation.hot_budget_bytes = d.hot_budget;
  // Geo-distributed zones: the default WAN shape is close enough to the
  // LAN NIC that fan-out washes it out. The drill models a real inter-zone
  // link — tens of ms RTT, ~0.25 MB/s per flow — so pre-positioning the hot
  // working set has something to buy.
  cfg.federation.wan_latency = 50 * sim::kMillisecond;
  cfg.federation.wan_bandwidth_bps = 2e6;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  Cloud cloud(cfg);
  Outcome out;

  cloud.run([](Cloud* cl, const Drill* d, Outcome* out) -> Task<> {
    co_await cl->provision_base_image();
    {
      // The job lives entirely in zone 0; its checkpoints commit there and
      // the drain replicates them outward.
      auto dep = std::make_unique<Deployment>(*cl, d->instances);
      auto session = std::make_unique<cr::Session>(*dep);
      co_await dep->deploy_and_boot();
      for (std::size_t i = 0; i < d->instances; ++i) {
        guestfs::SimpleFs* fs = dep->vm(i).fs();
        co_await fs->write_file("/data/state.bin",
                                Buffer::pattern(d->state_bytes, 300 + i));
        co_await fs->sync();
      }
      (void)co_await session->checkpoint("pre-loss");
      dep->destroy_all();
      // Total driver loss: nothing in-memory survives this block.
    }

    // The whole of zone 0 dies; restart into the HIGHEST surviving zone —
    // with 3 zones that is NOT the buddy holding the floor copies, so the
    // row isolates what hot replication buys.
    cl->federation()->fail_zone(0);
    const std::size_t target_zone = d->zones - 1;
    const std::uint64_t wan_before = cl->federation()->wan_fetch_bytes();

    Deployment dep2(*cl, d->instances);
    cr::Session session2(dep2);
    const sim::Time t0 = cl->simulation().now();
    (void)co_await session2.restart(
        cr::Selector::latest(),
        {.node_offset = target_zone * d->nodes_per_zone, .cold_caches = true});
    bool ok = true;
    for (std::size_t i = 0; i < d->instances; ++i) {
      const Buffer state =
          co_await dep2.vm(i).fs()->read_file("/data/state.bin");
      ok = ok && state == Buffer::pattern(d->state_bytes, 300 + i);
    }
    out->restart = cl->simulation().now() - t0;
    out->restart_wan_bytes = cl->federation()->wan_fetch_bytes() - wan_before;
    out->cross_zone_bytes = cl->federation()->cross_zone_bytes();
    out->ok = ok;
  }(&cloud, &d, &out));
  return out;
}

void register_all() {
  Drill base;
  base.nodes_per_zone = fast_mode() ? 4 : 8;
  base.instances = fast_mode() ? 2 : 4;
  base.state_bytes = (fast_mode() ? 8 : 24) * common::kMB;

  Drill z2_floor = base;
  z2_floor.zones = 2;
  Drill z3_floor = base;
  z3_floor.zones = 3;
  Drill z3_hot = z3_floor;
  z3_hot.hot_budget = 512 * common::kMB;  // covers the whole working set

  // Rows are computed lazily and cached so the z3-hot row can state its
  // speedup against the floor-only sibling without re-running it.
  struct Rows {
    bool have[3] = {false, false, false};
    Outcome out[3];
  };
  auto rows = std::make_shared<Rows>();
  auto ensure = [rows](std::size_t idx, const Drill& d) -> const Outcome& {
    if (!rows->have[idx]) {
      rows->out[idx] = run_drill(d);
      rows->have[idx] = true;
    }
    return rows->out[idx];
  };

  const std::pair<const char*, Drill> configs[3] = {
      {"AblationFederation/fed_z2_floor", z2_floor},
      {"AblationFederation/fed_z3_floor", z3_floor},
      {"AblationFederation/fed_z3_hot", z3_hot},
  };
  for (std::size_t idx = 0; idx < 3; ++idx) {
    const Drill drill = configs[idx].second;
    benchmark::RegisterBenchmark(
        configs[idx].first,
        [idx, drill, ensure, z3_floor](benchmark::State& state) {
          const Outcome& out = ensure(idx, drill);
          report_seconds(state, out.restart);
          state.counters["zone_loss_restart_s"] = sim::to_seconds(out.restart);
          state.counters["cross_zone_mb"] = mb(out.cross_zone_bytes);
          state.counters["restart_wan_mb"] = mb(out.restart_wan_bytes);
          bool verified = out.ok;
          // Counters must be uniform across rows (the CSV reporter aborts
          // otherwise); floor rows report the identity speedup.
          double speedup = 1.0;
          if (idx == 2) {
            // The acceptance inequality: hot replication must beat the
            // floor-only drill at the same zone count on BOTH restart
            // makespan and restart-path WAN bytes.
            const Outcome& floor = ensure(1, z3_floor);
            verified = verified && floor.ok &&
                       out.restart < floor.restart &&
                       out.restart_wan_bytes < floor.restart_wan_bytes;
            speedup = sim::to_seconds(out.restart) > 0
                          ? sim::to_seconds(floor.restart) /
                                sim::to_seconds(out.restart)
                          : 0.0;
          }
          state.counters["zone_loss_speedup"] = speedup;
          state.counters["verified"] = verified ? 1 : 0;
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
