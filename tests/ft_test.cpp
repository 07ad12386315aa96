// Fault-tolerance runtime tests: the Young/Daly interval analytics, the
// failure-schedule sampler, and the FtRunner's end-to-end behaviour — jobs
// complete under injected fail-stop failures by rolling back to the last
// complete global checkpoint, never losing more than one interval of work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "blob/repair.h"
#include "ft/failure.h"
#include "ft/interval.h"
#include "ft/runner.h"

namespace blobcr::ft {
namespace {

using core::Backend;
using core::Cloud;
using core::CloudConfig;

// ---------------------------------------------------------------------------
// interval.h — closed-form analytics
// ---------------------------------------------------------------------------

TEST(IntervalTest, YoungMatchesClosedForm) {
  EXPECT_DOUBLE_EQ(young_interval(2.0, 3600.0), std::sqrt(2.0 * 2.0 * 3600.0));
  EXPECT_DOUBLE_EQ(young_interval(0.5, 100.0), std::sqrt(100.0));
}

TEST(IntervalTest, DalyBelowYoungByRoughlyCkptCost) {
  // For C << M, Daly's correction is tau_young - C + O(C^{3/2}).
  const double c = 5.0, m = 10'000.0;
  const double young = young_interval(c, m);
  const double daly = daly_interval(c, m);
  EXPECT_LT(daly, young);
  EXPECT_NEAR(daly, young - c, 0.5 * c);
}

TEST(IntervalTest, DalyDegradesToMtbfWhenCheckpointTooExpensive) {
  EXPECT_DOUBLE_EQ(daly_interval(200.0, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(daly_interval(2'000.0, 100.0), 100.0);
}

TEST(IntervalTest, OptimaMonotonicInCheckpointCost) {
  // A cheaper checkpoint justifies checkpointing more often.
  double prev = 0;
  for (const double c : {0.5, 1.0, 2.0, 5.0, 10.0}) {
    const double tau = daly_interval(c, 3600.0);
    EXPECT_GT(tau, prev);
    prev = tau;
  }
}

TEST(IntervalTest, SystemMtbfDividesByNodeCount) {
  EXPECT_DOUBLE_EQ(system_mtbf(86'400.0, 120), 720.0);
  EXPECT_DOUBLE_EQ(system_mtbf(100.0, 1), 100.0);
}

TEST(IntervalTest, InvalidArgumentsThrow) {
  EXPECT_THROW(young_interval(0, 100), std::invalid_argument);
  EXPECT_THROW(young_interval(1, 0), std::invalid_argument);
  EXPECT_THROW(daly_interval(-1, 100), std::invalid_argument);
  EXPECT_THROW(system_mtbf(100, 0), std::invalid_argument);
  EXPECT_THROW(system_mtbf(0, 4), std::invalid_argument);
  EXPECT_THROW(expected_segment_time(10, 1, 0), std::invalid_argument);
  EXPECT_THROW(expected_makespan(10, 0, 1, 1, 100), std::invalid_argument);
}

TEST(IntervalTest, SegmentTimeApproachesLengthForHugeMtbf) {
  // Failure-free limit: E -> length.
  EXPECT_NEAR(expected_segment_time(100.0, 30.0, 1e9), 100.0, 0.01);
}

TEST(IntervalTest, SegmentTimeInfiniteWhenSegmentDwarfsMtbf) {
  EXPECT_TRUE(std::isinf(expected_segment_time(1e6, 1.0, 1.0)));
}

TEST(IntervalTest, MakespanFailureFreeLimitIsWorkPlusCheckpoints) {
  // 1000 s of work at tau = 100 s costs 10 checkpoints of 2 s.
  const double t = expected_makespan(1000.0, 100.0, 2.0, 30.0, 1e9);
  EXPECT_NEAR(t, 1000.0 + 10 * 2.0, 0.5);
}

TEST(IntervalTest, MakespanHandlesRemainderSegment) {
  // 250 s of work at tau = 100 s: two full segments plus a 50 s remainder,
  // each paying one checkpoint.
  const double t = expected_makespan(250.0, 100.0, 2.0, 30.0, 1e9);
  EXPECT_NEAR(t, 250.0 + 3 * 2.0, 0.5);
}

TEST(IntervalTest, DalyIntervalSitsNearEmpiricalOptimum) {
  // The analytic optimum should beat doubling or halving the interval.
  const double work = 50'000.0, c = 10.0, r = 60.0, m = 2'000.0;
  const double tau = daly_interval(c, m);
  const double at_opt = expected_makespan(work, tau, c, r, m);
  EXPECT_LE(at_opt, expected_makespan(work, tau / 2, c, r, m) * 1.001);
  EXPECT_LE(at_opt, expected_makespan(work, tau * 2, c, r, m) * 1.001);
}

TEST(IntervalTest, EfficiencyWithinUnitIntervalAndImprovesWithMtbf) {
  const double work = 10'000.0, c = 5.0, r = 30.0;
  double prev = 0;
  for (const double m : {500.0, 2'000.0, 10'000.0, 1e8}) {
    const double tau = daly_interval(c, m);
    const double eff = expected_efficiency(work, tau, c, r, m);
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    EXPECT_GT(eff, prev);
    prev = eff;
  }
}

TEST(IntervalTest, CheaperCheckpointsRaiseAchievableEfficiency) {
  // The BlobCR argument in one assertion: at each technology's own optimal
  // interval, the system with cheaper checkpoints wastes less of the machine.
  const double work = 50'000.0, r = 60.0, m = 1'000.0;
  const double eff_cheap =
      expected_efficiency(work, daly_interval(2.0, m), 2.0, r, m);
  const double eff_costly =
      expected_efficiency(work, daly_interval(20.0, m), 20.0, r, m);
  EXPECT_GT(eff_cheap, eff_costly);
}

// ---------------------------------------------------------------------------
// failure.h — schedule sampling
// ---------------------------------------------------------------------------

TEST(FailureScheduleTest, DeterministicForSeed) {
  const FailureLaw law = FailureLaw::exponential(50.0);
  const auto a = FailureSchedule::sample(law, 4, 3600 * sim::kSecond, 42);
  const auto b = FailureSchedule::sample(law, 4, 3600 * sim::kSecond, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].victim, b.events()[i].victim);
  }
}

TEST(FailureScheduleTest, DifferentSeedsDiffer) {
  const FailureLaw law = FailureLaw::exponential(50.0);
  const auto a = FailureSchedule::sample(law, 4, 3600 * sim::kSecond, 1);
  const auto b = FailureSchedule::sample(law, 4, 3600 * sim::kSecond, 2);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.events().front().at, b.events().front().at);
}

TEST(FailureScheduleTest, EventsSortedAndWithinHorizon) {
  const sim::Duration horizon = 7200 * sim::kSecond;
  const auto s =
      FailureSchedule::sample(FailureLaw::exponential(30.0), 8, horizon, 7);
  ASSERT_FALSE(s.empty());
  sim::Time prev = 0;
  for (const FailureEvent& ev : s.events()) {
    EXPECT_GE(ev.at, prev);
    EXPECT_LT(ev.at, horizon);
    EXPECT_LT(ev.victim, 8u);
    prev = ev.at;
  }
}

TEST(FailureScheduleTest, ExponentialEmpiricalMeanNearMtbf) {
  const double mtbf = 40.0;
  const auto s = FailureSchedule::sample(FailureLaw::exponential(mtbf), 1,
                                         400'000 * sim::kSecond, 11);
  ASSERT_GT(s.size(), 1'000u);  // enough samples for a stable mean
  const double mean =
      sim::to_seconds(s.events().back().at) / static_cast<double>(s.size());
  EXPECT_NEAR(mean, mtbf, 0.1 * mtbf);
}

TEST(FailureScheduleTest, WeibullShapeOneBehavesLikeExponential) {
  const double mtbf = 40.0;
  const auto s = FailureSchedule::sample(FailureLaw::weibull(mtbf, 1.0), 1,
                                         400'000 * sim::kSecond, 13);
  ASSERT_GT(s.size(), 1'000u);
  const double mean =
      sim::to_seconds(s.events().back().at) / static_cast<double>(s.size());
  EXPECT_NEAR(mean, mtbf, 0.1 * mtbf);
}

TEST(FailureScheduleTest, InfantMortalityWeibullIsBurstier) {
  // Shape < 1 piles probability mass near zero: the coefficient of
  // variation of gaps exceeds the exponential's 1.
  auto gaps = [](const FailureSchedule& s) {
    std::vector<double> out;
    sim::Time prev = 0;
    for (const FailureEvent& ev : s.events()) {
      out.push_back(sim::to_seconds(ev.at - prev));
      prev = ev.at;
    }
    return out;
  };
  auto cv = [&](const FailureSchedule& s) {
    const auto g = gaps(s);
    double mean = 0;
    for (double x : g) mean += x;
    mean /= static_cast<double>(g.size());
    double var = 0;
    for (double x : g) var += (x - mean) * (x - mean);
    var /= static_cast<double>(g.size());
    return std::sqrt(var) / mean;
  };
  const sim::Duration horizon = 400'000 * sim::kSecond;
  const auto weib =
      FailureSchedule::sample(FailureLaw::weibull(40.0, 0.5), 1, horizon, 17);
  const auto expo =
      FailureSchedule::sample(FailureLaw::exponential(40.0), 1, horizon, 17);
  EXPECT_GT(cv(weib), cv(expo));
  EXPECT_GT(cv(weib), 1.3);
}

TEST(FailureScheduleTest, FixedScheduleSortsEvents) {
  const auto s = FailureSchedule::fixed({{30 * sim::kSecond, 2},
                                         {10 * sim::kSecond, 0},
                                         {20 * sim::kSecond, 1}});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].victim, 0u);
  EXPECT_EQ(s.events()[1].victim, 1u);
  EXPECT_EQ(s.events()[2].victim, 2u);
}

TEST(FailureScheduleTest, ZeroMtbfThrows) {
  EXPECT_THROW(FailureSchedule::sample(FailureLaw::exponential(0), 1,
                                       100 * sim::kSecond, 1),
               std::invalid_argument);
}

TEST(FailureScheduleTest, InstancesGetIndependentStreams) {
  const auto s = FailureSchedule::sample(FailureLaw::exponential(25.0), 3,
                                         10'000 * sim::kSecond, 23);
  std::vector<std::size_t> counts(3, 0);
  for (const FailureEvent& ev : s.events()) ++counts[ev.victim];
  for (const std::size_t c : counts) EXPECT_GT(c, 0u);
}

// ---------------------------------------------------------------------------
// runner — end-to-end under a tiny cloud
// ---------------------------------------------------------------------------

CloudConfig tiny_cfg(Backend backend, int replication = 2) {
  CloudConfig cfg;
  cfg.compute_nodes = 16;  // room to shift to fresh nodes across restarts
  cfg.metadata_nodes = 2;
  cfg.backend = backend;
  cfg.replication = replication;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  return cfg;
}

FtJobConfig small_job() {
  FtJobConfig cfg;
  cfg.instances = 2;
  cfg.total_work = 90 * sim::kSecond;
  cfg.checkpoint_interval = 30 * sim::kSecond;
  cfg.step = 10 * sim::kSecond;
  cfg.state_bytes = 2 * common::kMB;
  cfg.real_data = true;
  return cfg;
}

TEST(FtRunnerTest, FailureFreeRunCompletes) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  const FtReport rep = run_ft_job(cloud, small_job());
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.restarts, 0u);
  // Initial checkpoint + one per 30 s interval over 90 s of work.
  EXPECT_EQ(rep.checkpoints, 4u);
  EXPECT_EQ(rep.useful_work, 90 * sim::kSecond);
  EXPECT_EQ(rep.epochs.size(), 4u);
  for (const EpochRecord& e : rep.epochs) EXPECT_TRUE(e.success);
}

TEST(FtRunnerTest, FailureFreeMakespanDecomposes) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  const FtReport rep = run_ft_job(cloud, small_job());
  ASSERT_TRUE(rep.completed);
  EXPECT_GE(rep.makespan, rep.useful_work + rep.checkpoint_overhead);
  // Slack: state refills and barrier synchronization only.
  const sim::Duration slack =
      rep.makespan - rep.useful_work - rep.checkpoint_overhead;
  EXPECT_LT(slack, 10 * sim::kSecond);
  EXPECT_GT(rep.efficiency(), 0.5);
  EXPECT_LE(rep.efficiency(), 1.0);
}

TEST(FtRunnerTest, MidRunFailureRollsBackAndCompletes) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  // Strike instance 1 while epoch 2 is computing (epoch 0 = initial ckpt).
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 1}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.failures, 1u);
  EXPECT_EQ(rep.restarts, 1u);
  EXPECT_GT(rep.wasted_compute, 0);
  EXPECT_GT(rep.restart_overhead, 0);
  EXPECT_EQ(rep.useful_work, job.total_work);
  // Exactly one unsuccessful epoch in the record.
  std::size_t failed_epochs = 0;
  for (const EpochRecord& e : rep.epochs) failed_epochs += e.success ? 0 : 1;
  EXPECT_EQ(failed_epochs, 1u);
}

TEST(FtRunnerTest, LosesAtMostOneIntervalPerFailure) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  ASSERT_TRUE(rep.completed);
  // Rollback cost is bounded by one interval plus one checkpoint attempt.
  EXPECT_LE(rep.wasted_compute,
            job.checkpoint_interval + 20 * sim::kSecond);
}

TEST(FtRunnerTest, FailureDuringInitialCheckpointRedeploysFromScratch) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  // The initial checkpoint runs right after boot; strike immediately.
  job.failures = FailureSchedule::fixed({{1 * sim::kMillisecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.restarts, 1u);
  EXPECT_EQ(rep.useful_work, job.total_work);
}

TEST(FtRunnerTest, RepeatedFailuresGiveUpAfterMaxRestarts) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  job.max_restarts = 3;
  // One failure every 5 s of virtual time: no 30 s epoch can ever commit.
  std::vector<FailureEvent> events;
  for (int i = 1; i <= 200; ++i)
    events.push_back({i * 5 * sim::kSecond, static_cast<std::size_t>(i) % 2});
  job.failures = FailureSchedule::fixed(std::move(events));
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.restarts, job.max_restarts + 1);
  EXPECT_LT(rep.useful_work, job.total_work);
}

TEST(FtRunnerTest, ReplicatedRepositorySurvivesProviderLoss) {
  // The failed node also hosted a data provider; with replication = 2 the
  // restore still finds every chunk.
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/2));
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
}

TEST(FtRunnerTest, UnreplicatedRepositoryLosesCheckpointData) {
  // With replication = 1 the dead node's chunks are gone; the rollback
  // cannot reconstruct the checkpoint image and the job fails loudly.
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/1));
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  EXPECT_THROW((void)run_ft_job(cloud, job), std::exception);
}

TEST(FtRunnerTest, RepairAfterRestartRecreatesLostReplicas) {
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/2));
  FtJobConfig job = small_job();
  job.repair_after_restart = true;
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.restarts, 1u);
  // The dead node co-hosted a provider with real checkpoint chunks: the
  // repair pass must have re-created replicas for them.
  EXPECT_GT(rep.repair_copies, 0u);
  EXPECT_GT(rep.repair_bytes, 0u);
}

TEST(FtRunnerTest, RepairKeepsRepeatedFailuresSurvivable) {
  // Three failures spread across the run; with repair after each rollback,
  // every chunk keeps two live replicas and the job always completes.
  Cloud cloud(tiny_cfg(Backend::BlobCR, /*replication=*/2));
  FtJobConfig job = small_job();
  job.repair_after_restart = true;
  job.failures = FailureSchedule::fixed({{40 * sim::kSecond, 0},
                                         {90 * sim::kSecond, 1},
                                         {140 * sim::kSecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_GE(rep.restarts, 2u);
}

TEST(FtRunnerTest, RepairReachesTheFailedNodesZone) {
  // Two zones over 16 nodes: zone 1 is nodes 8-15, so instance 8's node
  // co-hosts one of zone 1's providers. Its death leaves zone 1's chunks
  // short of a replica, and the repair pass must heal that zone too.
  CloudConfig cfg = tiny_cfg(Backend::BlobCR, /*replication=*/2);
  cfg.federation.zones = 2;
  Cloud cloud(cfg);
  FtJobConfig job = small_job();
  job.instances = 10;
  job.repair_after_restart = true;
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 8}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.restarts, 1u);
  EXPECT_GT(rep.repair_copies, 0u);
  EXPECT_EQ(blob::RepairService(*cloud.blob_store(1)).under_replicated(2), 0u);
}

TEST(FtRunnerTest, QcowBaselineAlsoRecovers) {
  // The qcow2-disk baseline stores snapshots in PVFS (whose servers do not
  // die in the fail-stop model); recovery must work there too.
  Cloud cloud(tiny_cfg(Backend::Qcow2Disk));
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 1}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.restarts, 1u);
}

TEST(FtRunnerTest, DeterministicReplay) {
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::sample(FailureLaw::exponential(120.0), 2,
                                         3600 * sim::kSecond, 99);
  Cloud a(tiny_cfg(Backend::BlobCR));
  Cloud b(tiny_cfg(Backend::BlobCR));
  const FtReport ra = run_ft_job(a, job);
  const FtReport rb = run_ft_job(b, job);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.restarts, rb.restarts);
  EXPECT_EQ(ra.checkpoints, rb.checkpoints);
  ASSERT_EQ(ra.epochs.size(), rb.epochs.size());
  for (std::size_t i = 0; i < ra.epochs.size(); ++i) {
    EXPECT_EQ(ra.epochs[i].start, rb.epochs[i].start);
    EXPECT_EQ(ra.epochs[i].end, rb.epochs[i].end);
  }
}

TEST(FtRunnerTest, MoreFailuresMeanLongerMakespan) {
  FtJobConfig calm = small_job();
  FtJobConfig stormy = small_job();
  stormy.failures = FailureSchedule::fixed(
      {{50 * sim::kSecond, 0}, {150 * sim::kSecond, 1}});
  Cloud a(tiny_cfg(Backend::BlobCR));
  Cloud b(tiny_cfg(Backend::BlobCR));
  const FtReport calm_rep = run_ft_job(a, calm);
  const FtReport stormy_rep = run_ft_job(b, stormy);
  ASSERT_TRUE(calm_rep.completed);
  ASSERT_TRUE(stormy_rep.completed);
  EXPECT_GT(stormy_rep.makespan, calm_rep.makespan);
  EXPECT_LT(stormy_rep.efficiency(), calm_rep.efficiency());
}

TEST(FtRunnerTest, BlobcrCheckpointsCheaperThanQcowDiskOverManyEpochs) {
  // Successive qcow2-disk snapshots re-copy the whole growing container
  // (Fig 5a); BlobCR commits only deltas, so over several epochs its total
  // checkpoint overhead must come out lower.
  FtJobConfig job;
  job.instances = 2;
  job.total_work = 120 * sim::kSecond;
  job.checkpoint_interval = 20 * sim::kSecond;
  job.step = 10 * sim::kSecond;
  job.state_bytes = 24 * common::kMB;
  Cloud blob_cloud(tiny_cfg(Backend::BlobCR));
  Cloud qcow_cloud(tiny_cfg(Backend::Qcow2Disk));
  const FtReport blob_rep = run_ft_job(blob_cloud, job);
  const FtReport qcow_rep = run_ft_job(qcow_cloud, job);
  ASSERT_TRUE(blob_rep.completed);
  ASSERT_TRUE(qcow_rep.completed);
  EXPECT_LT(blob_rep.checkpoint_overhead, qcow_rep.checkpoint_overhead);
}

TEST(FtRunnerTest, GcBoundsRepositoryGrowth) {
  // Same job with and without per-checkpoint GC: GC reclaims obsoleted
  // snapshot versions, the job still completes, and the repository ends up
  // strictly smaller.
  FtJobConfig job = small_job();
  job.total_work = 120 * sim::kSecond;
  job.checkpoint_interval = 20 * sim::kSecond;  // 7 checkpoints incl. initial

  Cloud plain_cloud(tiny_cfg(Backend::BlobCR));
  const FtReport plain = run_ft_job(plain_cloud, job);
  const std::uint64_t plain_repo = plain_cloud.repository_bytes();

  job.retention.keep_last = 1;
  Cloud gc_cloud(tiny_cfg(Backend::BlobCR));
  const FtReport gced = run_ft_job(gc_cloud, job);
  const std::uint64_t gc_repo = gc_cloud.repository_bytes();

  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(gced.completed);
  EXPECT_TRUE(gced.verified);
  EXPECT_GT(gced.gc_reclaimed_bytes, 0u);
  EXPECT_LT(gc_repo, plain_repo);
}

TEST(FtRunnerTest, GcKeepsRollbackTargetUsable) {
  // GC down to the single latest version, then fail: the rollback must
  // still restore cleanly from what survived collection.
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  job.retention.keep_last = 1;
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
  EXPECT_EQ(rep.restarts, 1u);
  EXPECT_GT(rep.gc_reclaimed_bytes, 0u);
}

TEST(FtRunnerTest, InvalidConfigsThrow) {
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  job.instances = 0;
  EXPECT_THROW((void)run_ft_job(cloud, job), std::invalid_argument);
  job = small_job();
  job.checkpoint_interval = 0;
  EXPECT_THROW((void)run_ft_job(cloud, job), std::invalid_argument);
  job = small_job();
  job.step = 0;
  EXPECT_THROW((void)run_ft_job(cloud, job), std::invalid_argument);
  job = small_job();
  job.total_work = 0;
  EXPECT_THROW((void)run_ft_job(cloud, job), std::invalid_argument);
}

TEST(FtRunnerTest, WeibullScheduleAlsoRecovers) {
  // Infant-mortality (shape < 1) failure law: bursty early failures.
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  FtJobConfig job = small_job();
  job.repair_after_restart = true;
  job.failures = FailureSchedule::sample(FailureLaw::weibull(400.0, 0.6), 2,
                                         3600 * sim::kSecond, 5);
  const FtReport rep = run_ft_job(cloud, job);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.verified);
}

TEST(FtRunnerTest, DetectionLatencyCountsTowardRestartOverhead) {
  FtJobConfig job = small_job();
  job.failures = FailureSchedule::fixed({{50 * sim::kSecond, 0}});
  Cloud cloud(tiny_cfg(Backend::BlobCR));
  const FtReport rep = run_ft_job(cloud, job);
  ASSERT_TRUE(rep.completed);
  ASSERT_EQ(rep.restarts, 1u);
  EXPECT_GE(rep.restart_overhead,
            static_cast<sim::Duration>(rep.restarts) * kDetectLatency);
  // Epochs run back to back except across a rollback, so the gaps between
  // them are exactly the restart overhead: detection, redeploy and restore.
  sim::Duration gaps = 0;
  for (std::size_t i = 1; i < rep.epochs.size(); ++i)
    gaps += rep.epochs[i].start - rep.epochs[i - 1].end;
  EXPECT_EQ(rep.restart_overhead, gaps);
}

}  // namespace
}  // namespace blobcr::ft
