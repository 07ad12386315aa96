// Ablation A5: checkpoint interval vs makespan under failures — the paper's
// core motivation quantified ("it is crucial to ... checkpoint the
// application frequently with minimal overhead", §1).
//
// A fixed job runs under an exponential fail-stop failure process while the
// FT runner checkpoints it every tau of useful work; we sweep tau around the
// Young/Daly optimum for BlobCR and the qcow2-disk baseline and report the
// measured (simulated) makespan next to the analytic renewal-model
// expectation. BlobCR's cheaper snapshots both lower the optimum interval
// and flatten the penalty for checkpointing often.
#include "bench_common.h"

#include <algorithm>
#include <cmath>

#include "ft/failure.h"
#include "ft/interval.h"
#include "ft/runner.h"

namespace blobcr::bench {
namespace {

struct IntervalPoint {
  ft::FtReport report;
  double analytic_makespan_s = 0;
  double daly_tau_s = 0;
};

/// Two-level (peer / repository) cadence sweep: one measured BlobCR run
/// grounds the cost model — the app-blocked share of a checkpoint is the
/// cheap peer-tier level (C1: staging + parity encode, survivable for
/// single-node failures via the redundancy tier), the rest of the overhead
/// is the repository-durability level (C2: drain + publish). M1 is the
/// system MTBF; repository-scale losses (M2) are modeled an order of
/// magnitude rarer. We report the analytic overhead across level ratios k
/// next to the jointly optimal (tau*, k*) and the single-level optimum.
struct TwoLevelPoint {
  double c1_s = 0, c2_s = 0;
  double overhead = 0;        // at this k, tau optimal for this k
  double tau_s = 0;           // cheap-level interval used at this k
  double k_opt = 1;           // jointly optimal level ratio
  double tau_opt_s = 0;       // jointly optimal cheap-level interval
  double tau_repo_opt_s = 0;  // k*·tau*: the durable-level interval
  double single_overhead = 0; // best single-level (k = 1) overhead
};

TwoLevelPoint two_level_point(const ft::FtReport& report, double k,
                              double node_mtbf_s, std::size_t instances) {
  TwoLevelPoint p;
  const double n = std::max<double>(1.0, report.checkpoints);
  const double total_s = sim::to_seconds(report.checkpoint_overhead) / n;
  p.c1_s = std::max(1e-3, sim::to_seconds(report.ckpt_blocked) / n);
  p.c2_s = std::max(1e-3, total_s - p.c1_s);
  const double m1 = ft::system_mtbf(node_mtbf_s, instances);
  const double m2 = 10.0 * m1;
  // Optimal tau for the *given* k (stationarity in tau alone).
  p.tau_s = std::sqrt((p.c1_s + p.c2_s / k) /
                      (1.0 / (2.0 * m1) + k / (2.0 * m2)));
  p.overhead = ft::two_level_overhead(p.tau_s, k, p.c1_s, p.c2_s, m1, m2);
  const ft::TwoLevelPlan plan = ft::two_level_optimum(p.c1_s, p.c2_s, m1, m2);
  p.k_opt = plan.k;
  p.tau_opt_s = plan.tau;
  p.tau_repo_opt_s = plan.k * plan.tau;
  p.single_overhead =
      ft::two_level_overhead(std::sqrt((p.c1_s + p.c2_s) /
                                       (1.0 / (2.0 * m1) + 1.0 / (2.0 * m2))),
                             1.0, p.c1_s, p.c2_s, m1, m2);
  return p;
}

/// Job shape: a few minutes of work across a handful of VMs so that the
/// sweep completes quickly while still spanning several failures.
ft::FtJobConfig job_for(double tau_s, std::uint64_t state_bytes,
                        double node_mtbf_s, std::uint64_t seed) {
  ft::FtJobConfig job;
  job.instances = fast_mode() ? 2 : 4;
  job.total_work = fast_mode() ? 600 * sim::kSecond : 1800 * sim::kSecond;
  job.checkpoint_interval = sim::from_seconds(tau_s);
  job.step = 15 * sim::kSecond;
  job.state_bytes = state_bytes;
  job.max_restarts = 400;
  job.failures = ft::FailureSchedule::sample(
      ft::FailureLaw::exponential(node_mtbf_s), job.instances,
      100 * 3600 * sim::kSecond, seed);
  return job;
}

IntervalPoint run_point(Backend backend, double tau_s, double node_mtbf_s,
                        bool redundancy = false) {
  const std::uint64_t state_bytes = 50 * common::kMB;
  // A failed node takes its co-located data provider down with it, so the
  // checkpoint repository must be replicated to survive (§3.1.1) — each
  // sweep point gets a fresh replicated cloud.
  core::CloudConfig cfg = paper_cloud(backend);
  cfg.replication = 2;
  // The redundancy tier encodes on the async drain, so it implies flush.
  cfg.flush.enabled = cfg.flush.enabled || redundancy;
  cfg.redundancy.enabled = redundancy;
  core::Cloud cloud(cfg);
  IntervalPoint point;
  const ft::FtJobConfig job = job_for(tau_s, state_bytes, node_mtbf_s, 4242);
  point.report = ft::run_ft_job(cloud, job);

  // Analytic overlay: per-checkpoint cost measured from the run itself,
  // restart cost likewise, system MTBF from the law.
  const double ckpt_cost_s =
      point.report.checkpoints > 0
          ? sim::to_seconds(point.report.checkpoint_overhead) /
                static_cast<double>(point.report.checkpoints)
          : 1.0;
  const double restart_cost_s =
      point.report.restarts > 0
          ? sim::to_seconds(point.report.restart_overhead) /
                static_cast<double>(point.report.restarts)
          : 60.0;
  const double mtbf =
      ft::system_mtbf(node_mtbf_s, static_cast<std::size_t>(job.instances));
  point.analytic_makespan_s = ft::expected_makespan(
      sim::to_seconds(job.total_work), tau_s, ckpt_cost_s, restart_cost_s,
      mtbf);
  point.daly_tau_s = ft::daly_interval(ckpt_cost_s, mtbf);
  return point;
}

void register_all() {
  const double node_mtbf_s = fast_mode() ? 1800.0 : 3600.0;
  const std::vector<double> taus =
      fast_mode() ? std::vector<double>{60, 150}
                  : std::vector<double>{30, 60, 120, 240, 480};
  const std::vector<Approach> approaches = {
      {"BlobCR-app", Backend::BlobCR, CkptMode::AppLevel},
      {"qcow2-disk-app", Backend::Qcow2Disk, CkptMode::AppLevel},
  };
  // Two-level cadence sweep: BlobCR with the peer redundancy tier on.
  // Every checkpoint pays the cheap peer level; only each k-th pays the
  // repository drain. Measured costs ground the analytic model; counters
  // report the overhead at each k next to the joint optimum (tau*, k*).
  const std::vector<double> ks =
      fast_mode() ? std::vector<double>{1, 4} : std::vector<double>{1, 2, 4, 8};
  for (const double k : ks) {
    const std::string name =
        std::string("AblationDalyInterval/BlobCR-two-level/k:") +
        std::to_string(static_cast<int>(k));
    const double tau = fast_mode() ? 60.0 : 120.0;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [k, tau, node_mtbf_s](benchmark::State& state) {
          const IntervalPoint p =
              run_point(Backend::BlobCR, tau, node_mtbf_s, true);
          const std::size_t instances = fast_mode() ? 2 : 4;
          const TwoLevelPoint tl =
              two_level_point(p.report, k, node_mtbf_s, instances);
          report_seconds(state, p.report.makespan);
          state.counters["c1_s"] = tl.c1_s;
          state.counters["c2_s"] = tl.c2_s;
          state.counters["tau_s"] = tl.tau_s;
          state.counters["overhead"] = tl.overhead;
          state.counters["k_opt"] = tl.k_opt;
          state.counters["tau_opt_s"] = tl.tau_opt_s;
          state.counters["tau_repo_opt_s"] = tl.tau_repo_opt_s;
          state.counters["single_overhead"] = tl.single_overhead;
          state.counters["daly_tau_s"] = p.daly_tau_s;
          state.counters["parity_rebuilt_mb"] = mb(p.report.restart.parity);
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kSecond);
  }
  for (const Approach& ap : approaches) {
    for (const double tau : taus) {
      const std::string name = std::string("AblationDalyInterval/") +
                               ap.name + "/tau_s:" +
                               std::to_string(static_cast<int>(tau));
      benchmark::RegisterBenchmark(
          name.c_str(),
          [ap, tau, node_mtbf_s](benchmark::State& state) {
            const IntervalPoint p = run_point(ap.backend, tau, node_mtbf_s);
            report_seconds(state, p.report.makespan);
            state.counters["analytic_s"] = p.analytic_makespan_s;
            state.counters["daly_tau_s"] = p.daly_tau_s;
            state.counters["efficiency"] = p.report.efficiency();
            state.counters["failures"] =
                static_cast<double>(p.report.failures);
            state.counters["restarts"] =
                static_cast<double>(p.report.restarts);
            state.counters["ckpts"] =
                static_cast<double>(p.report.checkpoints);
            state.counters["wasted_s"] =
                sim::to_seconds(p.report.wasted_compute);
            state.counters["ckpt_ovh_s"] =
                sim::to_seconds(p.report.checkpoint_overhead);
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
