// Ablation A8: the peer parity redundancy tier vs repository-side
// durability (SCR-style multi-level resilience grafted onto the paper's
// repository, ROADMAP item "multi-level peer redundancy + scavenge").
//
// Two experiments:
//
//  1. restart-bytes: the same tightly-coupled job suffers one fail-stop
//     node loss under three equal-durability configurations — all three
//     survive a single node failure:
//       parity  replication=1, XOR parity groups across the peer tier
//       repl2   replication=2 in the repository
//       repair  replication=2 + a re-replication scrub after the rollback
//     The headline claim, gated by `verified`: with parity the rollback
//     reconstructs the dead node's chunks from surviving peers' caches +
//     parity blocks and fetches STRICTLY fewer repository bytes than both
//     baselines, while storing half their repository footprint.
//
//  2. scavenge: a full repository outage (every data provider's disk dies)
//     on the parity configuration; cr::Session::scavenge() rebuilds blob +
//     catalog state from the surviving peer tier, and a subsequent restart
//     with cleared caches — every read forced through the scavenged
//     repository — must restore guest state bit-exactly.
#include "bench_common.h"

#include "cr/session.h"
#include "ft/failure.h"
#include "ft/runner.h"
#include "guestfs/simplefs.h"

namespace blobcr::bench {
namespace {

using common::Buffer;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

// ---------------------------------------------------------------------------
// Experiment 1: restart repository bytes after one fail-stop, three modes.
// ---------------------------------------------------------------------------

enum class Mode { Parity, Repl2, Repair };

ft::FtReport run_mode(Mode mode, std::size_t instances,
                      std::uint64_t state_bytes) {
  CloudConfig cfg = paper_cloud(Backend::BlobCR);
  // Equal durability, different mechanism: one repository copy + peer
  // parity vs two repository copies (with or without post-failure repair).
  cfg.replication = mode == Mode::Parity ? 1 : 2;
  cfg.flush.enabled = true;  // parity encodes on the async drain
  cfg.redundancy.enabled = mode == Mode::Parity;
  Cloud cloud(cfg);

  ft::FtJobConfig job;
  job.instances = instances;
  job.total_work = 600 * sim::kSecond;
  job.checkpoint_interval = 120 * sim::kSecond;
  job.step = 15 * sim::kSecond;
  job.state_bytes = state_bytes;
  job.real_data = true;  // digest-verify every restored rank state
  job.max_restarts = 8;
  job.repair_after_restart = mode == Mode::Repair;
  // Retire old checkpoint lines as the job runs: the GC reclaim also drops
  // their parity groups, bounding the tier's resident state (and the
  // ground-truth buffers real_data runs pin behind it).
  job.retention.keep_last = 2;
  // One deterministic fail-stop mid-run: instance 0's node (VM + its
  // co-located data provider) dies after two checkpoints have committed.
  std::vector<ft::FailureEvent> events;
  events.push_back({290 * sim::kSecond, 0});
  job.failures = ft::FailureSchedule::fixed(std::move(events));
  return ft::run_ft_job(cloud, job);
}

// ---------------------------------------------------------------------------
// Experiment 2: repository outage + scavenge on the parity configuration.
// ---------------------------------------------------------------------------

struct ScavengeOutcome {
  cr::ScavengeReport report;
  sim::Duration rebuild = 0;
  sim::Duration restart = 0;
  std::size_t records_listed = 0;
  bool restored_ok = false;
};

ScavengeOutcome run_scavenge_drill(std::size_t vms,
                                   std::uint64_t state_bytes) {
  CloudConfig cfg = paper_cloud(Backend::BlobCR);
  cfg.replication = 1;
  cfg.flush.enabled = true;
  cfg.redundancy.enabled = true;
  Cloud cloud(cfg);
  ScavengeOutcome out;

  cloud.run([](Cloud* cl, std::size_t vms, std::uint64_t state_bytes,
               ScavengeOutcome* out) -> Task<> {
    co_await cl->provision_base_image();
    Deployment dep(*cl, vms);
    cr::Session session(dep);
    co_await dep.deploy_and_boot();
    for (std::size_t i = 0; i < vms; ++i) {
      guestfs::SimpleFs* fs = dep.vm(i).fs();
      co_await fs->write_file("/data/state.bin",
                              Buffer::pattern(state_bytes, 100 + i));
      co_await fs->sync();
    }
    (void)co_await session.checkpoint("drill");

    // Repository outage: every data provider fail-stops at once. Only the
    // compute nodes' decoded-chunk caches and parity groups survive.
    for (const auto& provider : cl->blob_store()->providers())
      provider->fail();

    const sim::Time t0 = cl->simulation().now();
    out->report = co_await session.scavenge();
    out->rebuild = cl->simulation().now() - t0;
    out->records_listed = (co_await session.list()).size();

    // Clear every node cache so the restart cannot lean on the peer tier:
    // each lazy fetch must come out of the scavenged repository. Restart on
    // shifted nodes so no stale mirror state helps either.
    cl->reset_chunk_caches();
    const sim::Time t1 = cl->simulation().now();
    (void)co_await session.restart(cr::Selector::latest(),
                                   {.node_offset = vms});
    out->restart = cl->simulation().now() - t1;
    bool ok = true;
    for (std::size_t i = 0; i < vms; ++i) {
      const Buffer state =
          co_await dep.vm(i).fs()->read_file("/data/state.bin");
      ok = ok && state == Buffer::pattern(state_bytes, 100 + i);
    }
    out->restored_ok = ok;
  }(&cloud, vms, state_bytes, &out));
  return out;
}

void register_all() {
  const std::size_t instances = fast_mode() ? 4 : 8;
  const std::uint64_t state_bytes =
      (fast_mode() ? 20 : 50) * common::kMB;

  benchmark::RegisterBenchmark(
      "AblationRedundancy/restart-bytes",
      [instances, state_bytes](benchmark::State& state) {
        const ft::FtReport parity =
            run_mode(Mode::Parity, instances, state_bytes);
        const ft::FtReport repl2 =
            run_mode(Mode::Repl2, instances, state_bytes);
        const ft::FtReport repair =
            run_mode(Mode::Repair, instances, state_bytes);

        // The gate: parity must beat BOTH repository-side baselines on
        // restart-path repository bytes, with every restored rank state
        // digest-verified in all three runs.
        const bool fewer_repo_bytes =
            parity.restart.repo < repl2.restart.repo &&
            parity.restart.repo < repair.restart.repo;
        const bool all_ok = parity.completed && parity.verified &&
                            repl2.completed && repl2.verified &&
                            repair.completed && repair.verified;

        report_seconds(state, parity.restart_overhead);
        const double n = static_cast<double>(instances);
        state.counters["repo_mb_per_inst"] =
            mb(parity.restart.repo) / n;
        state.counters["repl2_repo_mb_per_inst"] =
            mb(repl2.restart.repo) / n;
        state.counters["repair_repo_mb_per_inst"] =
            mb(repair.restart.repo) / n;
        state.counters["parity_rebuilt_mb"] = mb(parity.restart.parity);
        state.counters["peer_mb"] = mb(parity.restart.peer);
        state.counters["repair_copied_mb"] = mb(repair.repair_bytes);
        state.counters["verified"] = (fewer_repo_bytes && all_ok) ? 1 : 0;
      })
      ->UseManualTime()
      ->Iterations(1)
      ->Unit(benchmark::kSecond);

  const std::size_t drill_vms = fast_mode() ? 4 : 8;
  benchmark::RegisterBenchmark(
      "AblationRedundancy/scavenge",
      [drill_vms, state_bytes](benchmark::State& state) {
        const ScavengeOutcome out =
            run_scavenge_drill(drill_vms, state_bytes);
        const bool ok = out.restored_ok && out.report.chunks_restored > 0 &&
                        out.records_listed > 0;
        report_seconds(state, out.rebuild);
        state.counters["rebuild_s"] = sim::to_seconds(out.rebuild);
        state.counters["restart_s"] = sim::to_seconds(out.restart);
        state.counters["scavenged_mb"] = mb(out.report.bytes_restored);
        state.counters["chunks_restored"] =
            static_cast<double>(out.report.chunks_restored);
        state.counters["unrecoverable"] =
            static_cast<double>(out.report.unrecoverable);
        state.counters["catalog_records"] =
            static_cast<double>(out.report.catalog_records);
        state.counters["verified"] = ok ? 1 : 0;
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
