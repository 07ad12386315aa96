// blobcr_perf: one measured iteration of one repository-benchmark workload.
//
//   blobcr_perf --workload NAME --seed N [--trace-file PATH]
//
// Builds a fresh Cloud, sets it up (constructor + base-image upload + first
// deploy_and_boot), then runs the workload closed-loop through the public
// C/R API: every instance or tenant issues its next checkpoint only after
// the previous one returned. Every restored state is read back and checked
// against the content the guest wrote. Untraced, it then sets up four more
// times on fresh Clouds and reports the median set-up time. The result is
// one JSON line on stdout; perf/run.py repeats iterations, aggregates
// medians and checks that simulated metrics repeat exactly.
//
// Two clocks: *sim* values come from the deterministic simulated clock and
// depend only on the seed; *host* values are wall-clock costs of computing
// them. Generating inputs and checking read-backs are excluded from the
// host measurement.
//
// Spans are taken here, around calls into each layer, on both clocks. With
// --trace-file they are also written as a Chrome trace-event file, each with
// simulator counters diffed across it, and the kernel probe runs.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/digest.h"
#include "common/rng.h"
#include "core/cloud.h"
#include "cr/session.h"
#include "federation/federation.h"
#include "flush/flush_agent.h"
#include "guestfs/simplefs.h"
#include "reduce/digest_index.h"
#include "reduce/reducer.h"
#include "reduce/rle.h"
#include "redundancy/manager.h"
#include "redundancy/parity.h"
#include "sim/when_all.h"

namespace blobcr::perf {
namespace {

using common::Buffer;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

constexpr std::uint64_t kChunk = 256 * 1024;

double host_now() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

double mb(std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean_s(const std::vector<sim::Duration>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (const sim::Duration d : v) sum += sim::to_seconds(d);
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank quantile.
double quantile_s(std::vector<sim::Duration> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return sim::to_seconds(v[std::min(rank, v.size()) - 1]);
}

// --- spans -------------------------------------------------------------------

struct Mark {
  sim::Time sim = 0;
  double host = 0;
  std::uint64_t events = 0;
  std::uint64_t fabric_bytes = 0;
};

struct Span {
  std::string name;
  std::string lane;
  Mark begin;
};

/// Accumulates per-name span totals on both clocks; with tracing on it
/// also keeps every span, with the simulator counters diffed across it.
///
/// Spans of one name may be open on several lanes at once (concurrent
/// tenants). Their simulated lengths add up (busy time summed over lanes);
/// their host time is the wall time during which at least one was open,
/// since the host clock is shared by everything the simulator runs.
///
/// Host time is read from a net clock that stops while the benchmark does
/// its own work (generating inputs, verifying read-backs), so neither
/// spans nor host_wall_s include it.
class Recorder {
 public:
  Recorder(Cloud* cloud, bool trace) : cloud_(cloud), trace_(trace) {}

  sim::Time sim_now() const { return cloud_->now(); }
  double host() const { return host_now() - excluded_; }
  double excluded_s() const { return excluded_; }

  /// Runs benchmark-side work with the net host clock stopped.
  template <typename Fn>
  decltype(auto) exclude(Fn&& fn) {
    struct Stopped {
      double* excluded;
      double since;
      ~Stopped() { *excluded += host_now() - since; }
    } stopped{&excluded_, host_now()};
    return fn();
  }

  Span open(std::string name, std::string lane) {
    Span s{std::move(name), std::move(lane), mark()};
    Total& t = totals_[s.name];
    if (t.open++ == 0) t.host_since = s.begin.host;
    return s;
  }

  void close(const Span& span) {
    const Mark end = mark();
    Total& t = totals_[span.name];
    t.sim += end.sim - span.begin.sim;
    if (--t.open == 0) t.host += end.host - t.host_since;
    if (trace_) events_.push_back(Event{span.name, span.lane, span.begin, end});
  }

  struct Total {
    sim::Duration sim = 0;
    double host = 0;
    int open = 0;
    double host_since = 0;
  };
  const std::map<std::string, Total>& totals() const { return totals_; }

  /// Chrome trace-event JSON: process 1 is the simulated clock, process 2
  /// the host clock; one thread lane per job.
  void write_trace(const std::string& path) const {
    std::map<std::string, int> lanes;
    for (const Event& e : events_) lanes.emplace(e.lane, 0);
    int next = 1;
    for (auto& [lane, id] : lanes) id = next++;
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n"
        << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"sim clock\"}},\n"
        << "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
           "\"args\":{\"name\":\"host clock\"}}";
    for (const auto& [lane, id] : lanes) {
      for (int pid = 1; pid <= 2; ++pid) {
        out << ",\n{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << id
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << lane
            << "\"}}";
      }
    }
    char line[512];
    for (const Event& e : events_) {
      const std::string cat = e.name.substr(0, e.name.find('.'));
      const double ts[3] = {0, static_cast<double>(e.begin.sim) / 1e3,
                            e.begin.host * 1e6};
      const double dur[3] = {0, static_cast<double>(e.end.sim - e.begin.sim) / 1e3,
                             (e.end.host - e.begin.host) * 1e6};
      for (int pid = 1; pid <= 2; ++pid) {
        std::snprintf(line, sizeof line,
                      ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                      "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"sim_events\":%llu,\"fabric_mb\":%.6f}}",
                      e.name.c_str(), cat.c_str(), pid, lanes.at(e.lane),
                      ts[pid], dur[pid],
                      static_cast<unsigned long long>(e.end.events -
                                                      e.begin.events),
                      mb(e.end.fabric_bytes - e.begin.fabric_bytes));
        out << line;
      }
    }
    out << "\n]}\n";
  }

 private:
  struct Event {
    std::string name;
    std::string lane;
    Mark begin;
    Mark end;
  };

  Mark mark() const {
    Mark m;
    m.sim = cloud_->now();
    m.host = host();
    if (trace_) {
      m.events = cloud_->simulation().events_processed();
      m.fabric_bytes = cloud_->fabric().total_bytes();
    }
    return m;
  }

  Cloud* cloud_;
  bool trace_;
  double excluded_ = 0;
  std::map<std::string, Total> totals_;
  std::vector<Event> events_;
};

// --- workload state ----------------------------------------------------------

/// What one job observed; outlives the job's deployment.
struct JobStats {
  net::TenantId tenant = net::kDefaultTenant;
  /// Per instance per checkpoint: coordinated dump start -> the instance's
  /// own snapshot returned (what the application waits for).
  std::vector<sim::Duration> blocked;
  std::vector<sim::Duration> pause;    // the VM pause alone (vm_downtime)
  std::vector<sim::Duration> publish;  // per round: snapshot request -> Complete
  sim::Time last_commit = 0;
  blob::BlobStore::TenantUsage usage_base;
};

/// Everything one iteration measures.
struct Context {
  Cloud* cloud = nullptr;
  Recorder* rec = nullptr;
  std::uint64_t seed = 0;
  bool setup_only = false;  // stop where the workload would begin
  double workload_begin_host = 0;  // on the recorder's net host clock
  std::uint64_t events_at_begin = 0;
  std::uint64_t fabric_at_begin = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, JobStats> jobs;
  std::vector<sim::Duration> restarts;  // makespan per restart
  std::vector<std::string> stage_errors;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t restart_wan_bytes = 0;

  // Counters harvested from mirrors, reducers, buses and sessions before
  // they are torn down (a restart replaces every mirror).
  flush::FlushStats flush;
  std::uint64_t src_zero = 0, src_cache = 0, src_peer = 0, src_parity = 0,
                src_repo = 0, src_wan = 0, src_remote = 0;
  std::uint64_t restarted_instances = 0;
  reduce::ReductionStats reduction;
  std::uint64_t hints_sent = 0, peer_copies = 0, gc_reclaimed = 0;
};

/// How a guest dumps its state. Rewrite truncates and writes a fresh file,
/// so the file system allocates new blocks every round. InPlace overwrites
/// the previous dump from offset 0 (the tail of a longer previous dump
/// stays), so the file keeps its placement on the virtual disk and
/// identical content lands in identical chunks across ranks and rounds,
/// which is what lets reduction find it.
enum class Dump { Rewrite, InPlace };

/// One job: its deployment, its C/R session and the state each of its
/// instances must restore to.
struct Job {
  std::string name;
  std::size_t instances = 0;
  std::size_t node_offset = 0;
  Dump dump = Dump::Rewrite;
  /// Apply keep-last-2 retention after every commit.
  bool retain = true;
  JobStats* stats = nullptr;
  /// The newest record this job committed; a restart must select it.
  cr::CheckpointId last_record = 0;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<cr::Session> session;
  /// Per instance: file path -> the content it must read back as.
  std::vector<std::map<std::string, Buffer>> state;
};

blob::BlobStore::TenantUsage usage_of(Cloud* cloud, net::TenantId t) {
  blob::BlobStore::TenantUsage sum;
  for (std::uint32_t z = 0; z < cloud->zones(); ++z) {
    const blob::BlobStore::TenantUsage u =
        cloud->blob_store(z)->tenant_usage_snapshot(t);
    sum.commits += u.commits;
    sum.shipped_bytes += u.shipped_bytes;
    sum.commit_wait += u.commit_wait;
    sum.provider_wait += u.provider_wait;
    sum.prefetch_wait += u.prefetch_wait;
  }
  return sum;
}

std::unique_ptr<Job> make_job(Context* ctx, std::string name,
                              std::size_t instances, std::size_t node_offset,
                              net::TenantId tenant) {
  auto job = std::make_unique<Job>();
  job->name = std::move(name);
  job->instances = instances;
  job->node_offset = node_offset;
  job->stats = &ctx->jobs[job->name];
  job->stats->tenant = tenant;
  Deployment::Options dopts;
  dopts.node_offset = node_offset;
  dopts.tenant = tenant;
  job->dep = std::make_unique<Deployment>(*ctx->cloud, instances, dopts);
  cr::Session::Config scfg;
  if (tenant != net::kDefaultTenant) scfg.job = job->name;
  // Retention keeps the last two checkpoints; it runs after each commit
  // (unless the job turns it off) under its own span, not inside publish.
  scfg.retention.keep_last = 2;
  scfg.auto_retention = false;
  job->session = std::make_unique<cr::Session>(*job->dep, scfg);
  job->state.resize(instances);
  return job;
}

/// Marks the end of setup: everything after this is the workload proper.
void begin_workload(Context* ctx) {
  for (auto& [name, js] : ctx->jobs) {
    js.usage_base = usage_of(ctx->cloud, js.tenant);
  }
  ctx->workload_begin_host = ctx->rec->host();
  ctx->events_at_begin = ctx->cloud->simulation().events_processed();
  ctx->fabric_at_begin = ctx->cloud->fabric().total_bytes();
}

/// Input buffers are built outside the host measurement.
template <typename Fn>
std::vector<Buffer> generate(Context* ctx, std::size_t n, Fn&& fn) {
  return ctx->rec->exclude([&] {
    std::vector<Buffer> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  });
}

void harvest_flush(Context* ctx, Job* job) {
  for (std::size_t i = 0; i < job->instances; ++i) {
    const core::MirrorDevice* m = job->dep->instance(i).mirror.get();
    if (m == nullptr || m->flush_agent() == nullptr) continue;
    const flush::FlushStats& s = m->flush_agent()->stats();
    ctx->flush.drains_failed += s.drains_failed;
    ctx->flush.backpressure_waits += s.backpressure_waits;
    ctx->flush.blocked_time += s.blocked_time;
  }
}

/// Restart-source bytes of freshly restarted mirrors; called right after
/// the read-back, so the counters cover exactly restart + restore.
void harvest_sources(Context* ctx, Job* job) {
  for (std::size_t i = 0; i < job->instances; ++i) {
    const core::MirrorDevice* m = job->dep->instance(i).mirror.get();
    if (m == nullptr) continue;
    ctx->src_zero += m->zero_bytes_materialized();
    ctx->src_cache += m->cache_hit_bytes();
    ctx->src_peer += m->peer_bytes_fetched();
    ctx->src_parity += m->parity_bytes_rebuilt();
    ctx->src_repo += m->repo_bytes_fetched();
    ctx->src_wan += m->wan_bytes_fetched();
    ctx->src_remote += m->remote_bytes_fetched();
  }
  ctx->restarted_instances += job->instances;
}

/// Counters that live as long as the deployment and session; called once
/// per job, before it is destroyed.
void harvest_job(Context* ctx, Job* job) {
  harvest_flush(ctx, job);
  if (const reduce::Reducer* r = job->dep->reducer()) {
    const reduce::ReductionStats& s = r->stats();
    ctx->reduction.chunks_total += s.chunks_total;
    ctx->reduction.raw_bytes += s.raw_bytes;
    ctx->reduction.shipped_bytes += s.shipped_bytes;
    ctx->reduction.zero_chunks += s.zero_chunks;
    ctx->reduction.dedup_hits += s.dedup_hits;
    ctx->reduction.compressed_chunks += s.compressed_chunks;
  }
  ctx->hints_sent += job->dep->prefetch_bus().hints_sent();
  ctx->peer_copies += job->dep->prefetch_bus().peer_copies();
  ctx->gc_reclaimed += job->session->gc_reclaimed_bytes();
}

// --- phases --------------------------------------------------------------------

/// Records what every instance's `path` must read back as after the
/// dump of `bufs` (host time excluded).
void expect_dump(Context* ctx, Job* job, const std::string& path,
                 const std::vector<Buffer>& bufs) {
  ctx->rec->exclude([&] {
    for (std::size_t i = 0; i < job->instances; ++i) {
      Buffer& file = job->state[i][path];
      if (job->dump == Dump::InPlace) {
        file.overwrite(0, bufs[i]);
      } else {
        file = bufs[i];
      }
    }
  });
}

Task<> write_instance(Job* job, std::size_t i, std::string path,
                      Buffer data) {
  guestfs::SimpleFs* fs = job->dep->vm(i).fs();
  if (job->dump == Dump::InPlace) {
    const guestfs::Fd fd = fs->open(path, /*create=*/true);
    co_await fs->pwrite(fd, 0, std::move(data));
    fs->close(fd);
  } else {
    co_await fs->write_file(path, std::move(data));
  }
  co_await fs->sync();
}

Task<> snapshot_one(Context* ctx, Job* job, std::size_t i,
                    sim::Time dump_start) {
  const core::InstanceSnapshot snap = co_await job->dep->snapshot_instance(i);
  job->stats->blocked.push_back(ctx->cloud->now() - dump_start);
  job->stats->pause.push_back(snap.vm_downtime);
  ++ctx->attempted;
}

Task<> drain_one(Job* job, std::size_t i) {
  co_await job->dep->wait_drained(i);
}

/// The spans of a checkpoint tile its publish interval by construction, so
/// they are checked against the library's own timestamps instead: every
/// snapshot version of the record was published (VersionInfo::created)
/// after the request and before the drain span ended, and the catalog
/// staged the record (CheckpointRecord::created) inside the commit span.
void check_stages(Context* ctx, const Job& job,
                  const cr::CheckpointRecord& record, sim::Time request,
                  sim::Time drained, sim::Time done) {
  Cloud* cloud = ctx->cloud;
  bool ok = record.created >= drained && record.created <= done;
  for (const core::InstanceSnapshot& s : record.snapshots) {
    const blob::BlobMeta& meta =
        cloud->store_of_blob(s.image)->version_manager().peek(s.image);
    const sim::Time published = meta.version(s.version).created;
    ok = ok && published >= request && published <= drained;
  }
  if (!ok) ctx->stage_errors.push_back(job.name + " checkpoint");
}

/// One coordinated checkpoint: every guest dumps `bufs` into `path` and
/// syncs; then every instance requests its disk snapshot; then the async
/// drains are waited out and the catalog record committed; then retention
/// runs. The snapshot, drain and commit spans tile the publish interval.
Task<> checkpoint_round(Context* ctx, Job* job, std::string path,
                        std::vector<Buffer> bufs) {
  expect_dump(ctx, job, path, bufs);
  Recorder& rec = *ctx->rec;
  sim::Simulation& sim = ctx->cloud->simulation();
  const sim::Time dump_start = rec.sim_now();
  Span span = rec.open("guestfs.write", job->name);
  std::vector<Task<>> writes;
  for (std::size_t i = 0; i < job->instances; ++i) {
    writes.push_back(write_instance(job, i, path, std::move(bufs[i])));
  }
  co_await sim::when_all(sim, std::move(writes));
  rec.close(span);

  const sim::Time request = rec.sim_now();
  span = rec.open("core.snapshot", job->name);
  std::vector<Task<>> snaps;
  for (std::size_t i = 0; i < job->instances; ++i) {
    snaps.push_back(snapshot_one(ctx, job, i, dump_start));
  }
  co_await sim::when_all(sim, std::move(snaps));
  rec.close(span);

  span = rec.open("flush.drain", job->name);
  std::vector<Task<>> drains;
  for (std::size_t i = 0; i < job->instances; ++i) {
    drains.push_back(drain_one(job, i));
  }
  co_await sim::when_all(sim, std::move(drains));
  rec.close(span);
  const sim::Time drained = sim.now();

  span = rec.open("cr.commit", job->name);
  const cr::CheckpointRecord record = co_await job->session->commit_last();
  rec.close(span);
  ++ctx->attempted;
  if (record.state != cr::RecordState::Complete) ++ctx->failed;
  job->last_record = record.id;

  job->stats->publish.push_back(sim.now() - request);
  job->stats->last_commit = sim.now();
  check_stages(ctx, *job, record, request, drained, sim.now());

  if (job->retain) {
    span = rec.open("cr.retention", job->name);
    (void)co_await job->session->apply_retention();
    rec.close(span);
  }
}

Task<> verify_instance(Context* ctx, Job* job, std::size_t i) {
  guestfs::SimpleFs* fs = job->dep->vm(i).fs();
  bool ok = true;
  for (const auto& [path, expected] : job->state[i]) {
    const Buffer back = co_await fs->read_file(path);
    ok = ok && ctx->rec->exclude([&] { return back == expected; });
  }
  ++ctx->attempted;
  if (!ok) ++ctx->failed;
}

/// Restart from the job's latest complete checkpoint, then every instance
/// reads its whole state back concurrently. The two spans tile the
/// makespan. The restart must select the record the job committed last.
Task<> restart_phase(Context* ctx, Job* job,
                     cr::Session::RestartOptions opts) {
  Recorder& rec = *ctx->rec;
  sim::Simulation& sim = ctx->cloud->simulation();
  const sim::Time request = rec.sim_now();
  Span span = rec.open("cr.restart", job->name);
  const cr::CheckpointRecord restored =
      co_await job->session->restart(cr::Selector::latest(), opts);
  rec.close(span);
  if (restored.id != job->last_record) {
    ctx->stage_errors.push_back(job->name + " restart");
  }

  span = rec.open("core.restore_read", job->name);
  std::vector<Task<>> reads;
  for (std::size_t i = 0; i < job->instances; ++i) {
    reads.push_back(verify_instance(ctx, job, i));
  }
  co_await sim::when_all(sim, std::move(reads));
  rec.close(span);

  ctx->restarts.push_back(sim.now() - request);
  harvest_sources(ctx, job);
}

Task<> deploy_phase(Context* ctx, Job* job) {
  const Span span = ctx->rec->open("core.deploy_boot", job->name);
  co_await job->dep->deploy_and_boot();
  ctx->rec->close(span);
}

CloudConfig paper_cloud() {
  CloudConfig cfg;
  cfg.compute_nodes = 120;
  cfg.metadata_nodes = 20;
  cfg.backend = core::Backend::BlobCR;
  cfg.os = vm::GuestOsConfig::debian_like();
  cfg.vm.os_ram_bytes = 118 * common::kMB;
  cfg.vm.process_overhead_bytes = 2 * common::kMB;
  return cfg;
}

// --- generators ----------------------------------------------------------------

/// The independent generator stream of one rank's state in one round.
common::Rng state_rng(std::uint64_t seed, std::uint64_t job, std::size_t rank,
                      int round) {
  const std::uint64_t stream =
      (job << 32) + (rank << 16) + static_cast<std::uint64_t>(round);
  return common::Rng(common::mix64(seed) ^ common::mix64(stream + 1));
}

/// `base` bytes varied by up to ±1% or ±16 pages of 4 KiB, whichever is
/// more. Ranks of a real job hold unequal state, and this is what makes
/// every simulated timing depend on the seed; the floor keeps small states
/// from collapsing onto a few distinct sizes.
std::size_t jittered(std::uint64_t base, common::Rng& rng) {
  const auto pages = static_cast<std::int64_t>(base / 4096);
  const std::int64_t span = std::max<std::int64_t>(pages / 100, 16);
  return static_cast<std::size_t>(pages + rng.uniform_range(-span, span)) *
         4096;
}

/// A chunk of byte runs (lengths 8..63): the compressible share of state.
Buffer runs_chunk(common::Rng& rng) {
  std::vector<std::byte> data(kChunk);
  std::size_t i = 0;
  while (i < kChunk) {
    const std::size_t len =
        std::min<std::size_t>(8 + rng.uniform(56), kChunk - i);
    std::memset(data.data() + i, static_cast<int>(rng.uniform(256)), len);
    i += len;
  }
  return Buffer::real(std::move(data));
}

/// Random chunks standing in for state that is phantom in the simulation.
std::vector<Buffer> random_chunks(std::uint64_t seed, std::size_t n) {
  std::vector<Buffer> out;
  for (std::size_t j = 0; j < n; ++j) {
    out.push_back(Buffer::pattern(kChunk, common::mix64(seed + j)));
  }
  return out;
}

std::vector<Buffer> split_chunks(const Buffer& b) {
  std::vector<Buffer> out;
  for (std::size_t off = 0; off + kChunk <= b.size(); off += kChunk) {
    out.push_back(b.slice(off, kChunk));
  }
  return out;
}

// --- workloads -------------------------------------------------------------------

/// restart_storm: the paper's Fig 3 path. Phantom ~200 MB per rank,
/// app-level dump + sync + snapshot + commit per round; then every instance
/// dies and the job restarts cold on fresh nodes, all instances reading
/// their state back concurrently. Reduction, flush, parity and retention
/// are off, so the concurrent read-back dominates host time: at 24
/// instances it is about two thirds of it.
struct RestartStorm {
  static constexpr std::size_t kInstances = 24;
  static constexpr int kRounds = 5;
  static constexpr std::uint64_t kBuffer = 200 * common::kMB;

  static CloudConfig config() { return paper_cloud(); }

  static Buffer state(std::uint64_t seed, std::size_t rank, int round) {
    common::Rng rng = state_rng(seed, 0, rank, round);
    return Buffer::phantom(jittered(kBuffer, rng));
  }

  static std::vector<Buffer> kernel_chunks(std::uint64_t seed) {
    return random_chunks(seed, 64);
  }

  static Task<> run(Context* ctx) {
    Cloud* cloud = ctx->cloud;
    co_await cloud->provision_base_image();
    auto job = make_job(ctx, "job", kInstances, 0, net::kDefaultTenant);
    job->retain = false;
    co_await deploy_phase(ctx, job.get());
    begin_workload(ctx);
    if (ctx->setup_only) co_return;

    for (int round = 0; round < kRounds; ++round) {
      std::vector<Buffer> bufs = generate(ctx, kInstances, [&](std::size_t i) {
        return state(ctx->seed, i, round);
      });
      co_await checkpoint_round(ctx, job.get(), "/data/buffer.bin",
                                std::move(bufs));
    }
    harvest_flush(ctx, job.get());
    job->dep->destroy_all();
    cr::Session::RestartOptions opts;
    opts.node_offset = kInstances;
    opts.cold_caches = true;
    co_await restart_phase(ctx, job.get(), opts);
    harvest_job(ctx, job.get());

    ctx->checks.emplace_back("peer_bytes_gt_0", ctx->src_peer > 0);
    ctx->checks.emplace_back("repo_bytes_gt_0", ctx->src_repo > 0);
  }
};

/// ckpt_reduced_async: real mixed content through the async flush,
/// reduction (zero suppression, dedup, RLE) and XOR parity. Then three
/// successive fail-stops, each followed by a warm rollback onto fresh
/// nodes served by parity rebuild and survivor caches.
struct CkptReducedAsync {
  static constexpr std::size_t kInstances = 12;
  static constexpr int kRounds = 9;
  static constexpr std::size_t kFailures = 3;
  static constexpr std::size_t kChunks = 20;  // 5 MiB per rank per round

  static CloudConfig config() {
    CloudConfig cfg = paper_cloud();
    cfg.reduction.enabled = true;
    cfg.reduction.compression = true;
    cfg.flush.enabled = true;
    cfg.redundancy.enabled = true;
    return cfg;
  }

  /// Per rank and round, 40/40/10/10 by chunks: a dataset shared by every
  /// rank (constant over rounds), two zero chunks, two chunks of byte
  /// runs, then rank-private random data of jittered() size, so ranks hold
  /// unequal state. The fixed-size segments come first, so they stay at
  /// the same offsets whatever the jitter; zeros and runs span two chunks
  /// so a whole chunk of each survives any placement on the virtual disk.
  static Buffer state(std::uint64_t seed, std::size_t rank, int round) {
    common::Rng rng = state_rng(seed, 0, rank, round);
    Buffer out = Buffer::pattern(kChunks * 4 / 10 * kChunk,
                                 common::mix64(seed ^ 0x5a17ULL));
    out.append(Buffer::zeros(kChunks / 10 * kChunk));
    for (std::size_t j = 0; j < kChunks / 10; ++j) out.append(runs_chunk(rng));
    out.append(Buffer::pattern(jittered(kChunks * 4 / 10 * kChunk, rng),
                               rng.next_u64()));
    return out;
  }

  static std::vector<Buffer> kernel_chunks(std::uint64_t seed) {
    std::vector<Buffer> out;
    for (std::size_t rank = 0; rank < 4; ++rank) {
      for (Buffer& c : split_chunks(state(seed, rank, 0))) {
        out.push_back(std::move(c));
      }
    }
    return out;
  }

  static Task<> run(Context* ctx) {
    Cloud* cloud = ctx->cloud;
    co_await cloud->provision_base_image();
    auto job = make_job(ctx, "job", kInstances, 0, net::kDefaultTenant);
    job->dump = Dump::InPlace;
    co_await deploy_phase(ctx, job.get());
    begin_workload(ctx);
    if (ctx->setup_only) co_return;

    for (int round = 0; round < kRounds; ++round) {
      std::vector<Buffer> bufs = generate(ctx, kInstances, [&](std::size_t i) {
        return state(ctx->seed, i, round);
      });
      co_await checkpoint_round(ctx, job.get(), "/data/state.bin",
                                std::move(bufs));
    }
    for (std::size_t failure = 1; failure <= kFailures; ++failure) {
      // Victims follow a fixed sequence: which node dies decides which
      // parity groups rebuild, and a seeded choice moved restart bytes by
      // ±13% between seeds.
      harvest_flush(ctx, job.get());
      job->dep->fail_instance(5 * failure % kInstances);
      cr::Session::RestartOptions opts;
      // Fresh machines each time; survivors keep their caches.
      opts.node_offset = failure * kInstances;
      co_await restart_phase(ctx, job.get(), opts);
    }
    harvest_job(ctx, job.get());

    ctx->checks.emplace_back("parity_bytes_gt_0", ctx->src_parity > 0);
    ctx->checks.emplace_back("dedup_hits_gt_0", ctx->reduction.dedup_hits > 0);
    ctx->checks.emplace_back("zero_chunks_gt_0", ctx->reduction.zero_chunks > 0);
    ctx->checks.emplace_back("compressed_chunks_gt_0",
                             ctx->reduction.compressed_chunks > 0);
    ctx->checks.emplace_back("drains_failed_eq_0",
                             ctx->flush.drains_failed == 0);
  }
};

/// tenant_storm: four bulk tenants and one small weight-4 tenant share one
/// repository under QoS. Commits and cold rollbacks of all tenants contend
/// in the same admission gates, metadata shards and epoch GC.
struct TenantStorm {
  struct Plan {
    std::string name;
    double weight = 1.0;
    std::size_t instances = 0;
    std::uint64_t bytes = 0;
    int rounds = 0;
    int restart_every = 0;
    sim::Duration stagger = 0;
    sim::Duration think = 0;
  };
  static constexpr double kSharedFraction = 0.3;

  static std::vector<Plan> plans() {
    std::vector<Plan> p;
    for (int k = 0; k < 4; ++k) {
      p.push_back(Plan{"bulk" + std::to_string(k), 1.0, 3, 8 * common::kMB,
                       7, 2, k * 500 * sim::kMillisecond, 0});
    }
    p.push_back(Plan{"small", 4.0, 4, 1 * common::kMB, 25, 5,
                     2 * sim::kSecond, 200 * sim::kMillisecond});
    return p;
  }

  static CloudConfig config() {
    CloudConfig cfg = paper_cloud();
    cfg.reduction.enabled = true;
    cfg.qos.enabled = true;
    cfg.qos.commit_slots = 8;
    cfg.qos.provider_slots = 2;
    cfg.qos.prefetch_slots = 2;
    cfg.version_shards = 4;
    return cfg;
  }

  /// The leading 30% (whole chunks) is a dataset shared by every tenant,
  /// rank and round; the rest, ±1%, is private to (tenant, rank, round).
  static Buffer state(std::uint64_t seed, std::uint64_t bytes,
                      std::size_t tenant, std::size_t rank, int round) {
    const std::uint64_t shared =
        static_cast<std::uint64_t>(static_cast<double>(bytes) *
                                   kSharedFraction) /
        kChunk * kChunk;
    common::Rng rng = state_rng(seed, tenant, rank, round);
    Buffer buf = Buffer::pattern(shared, common::mix64(seed ^ 0x7e4a57ULL));
    buf.append(Buffer::pattern(jittered(bytes - shared, rng), rng.next_u64()));
    return buf;
  }

  static std::vector<Buffer> kernel_chunks(std::uint64_t seed) {
    return split_chunks(state(seed, 16 * common::kMB, 0, 0, 0));
  }

  static Task<> job_loop(Context* ctx, Job* job, Plan plan, std::size_t index) {
    sim::Simulation& sim = ctx->cloud->simulation();
    co_await sim.delay(plan.stagger);
    for (int round = 0; round < plan.rounds; ++round) {
      std::vector<Buffer> bufs =
          generate(ctx, plan.instances, [&](std::size_t i) {
            return state(ctx->seed, plan.bytes, index, i, round);
          });
      co_await checkpoint_round(ctx, job, "/data/buffer.bin", std::move(bufs));
      if ((round + 1) % plan.restart_every == 0 && round + 1 < plan.rounds) {
        harvest_flush(ctx, job);
        job->dep->destroy_all();
        cr::Session::RestartOptions opts;
        opts.node_offset = job->node_offset;
        opts.cold_caches = true;
        co_await restart_phase(ctx, job, opts);
      }
      if (plan.think > 0) co_await sim.delay(plan.think);
    }
  }

  static Task<> run(Context* ctx) {
    Cloud* cloud = ctx->cloud;
    co_await cloud->provision_base_image();
    const std::vector<Plan> ps = plans();
    std::vector<std::unique_ptr<Job>> jobs;
    std::size_t offset = 0;
    for (const Plan& p : ps) {
      const net::TenantId t = cloud->register_tenant(p.name, p.weight);
      jobs.push_back(make_job(ctx, p.name, p.instances, offset, t));
      jobs.back()->dump = Dump::InPlace;
      offset += p.instances;
    }
    std::vector<Task<>> deploys;
    for (auto& j : jobs) deploys.push_back(deploy_phase(ctx, j.get()));
    co_await sim::when_all(cloud->simulation(), std::move(deploys));
    begin_workload(ctx);
    if (ctx->setup_only) co_return;

    std::vector<Task<>> loops;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      loops.push_back(job_loop(ctx, jobs[k].get(), ps[k], k));
    }
    co_await sim::when_all(cloud->simulation(), std::move(loops));

    sim::Duration waits = 0;
    sim::Time last_bulk = 0;
    for (auto& j : jobs) {
      harvest_job(ctx, j.get());
      const blob::BlobStore::TenantUsage u = usage_of(cloud, j->stats->tenant);
      waits += u.commit_wait + u.provider_wait + u.prefetch_wait;
      if (j->name != "small") {
        last_bulk = std::max(last_bulk, j->stats->last_commit);
      }
    }
    ctx->checks.emplace_back("qos_wait_gt_0", waits > 0);
    ctx->checks.emplace_back("small_done_before_bulk",
                             ctx->jobs.at("small").last_commit < last_bulk);
  }
};

/// zone_loss: three zones over a slow WAN, flush and reduction on, hot-chunk
/// replication covering the working set. Every round adds one file of real
/// data per instance; then zone 0 dies and a fresh driver restarts the
/// lineage in zone 2 with cold caches.
struct ZoneLoss {
  static constexpr std::size_t kZones = 3;
  static constexpr std::size_t kNodesPerZone = 8;
  static constexpr std::size_t kInstances = 8;
  static constexpr int kRounds = 13;
  static constexpr std::uint64_t kPart = 1 * common::kMB;

  static CloudConfig config() {
    CloudConfig cfg;
    cfg.compute_nodes = kZones * kNodesPerZone;
    cfg.metadata_nodes = 4;
    cfg.backend = core::Backend::BlobCR;
    cfg.flush.enabled = true;
    cfg.reduction.enabled = true;
    cfg.federation.zones = kZones;
    cfg.federation.hot_budget_bytes = 512 * common::kMB;
    cfg.federation.wan_latency = 50 * sim::kMillisecond;
    cfg.federation.wan_bandwidth_bps = 2e6;
    cfg.os = vm::GuestOsConfig::test_tiny();
    cfg.vm.os_ram_bytes = 20 * common::kMB;
    return cfg;
  }

  static Buffer state(std::uint64_t seed, std::size_t rank, int round) {
    common::Rng rng = state_rng(seed, 0, rank, round);
    return Buffer::pattern(jittered(kPart, rng), rng.next_u64());
  }

  static std::vector<Buffer> kernel_chunks(std::uint64_t seed) {
    std::vector<Buffer> out;
    for (int round = 0; round < 16; ++round) {
      for (Buffer& c : split_chunks(state(seed, 0, round))) {
        out.push_back(std::move(c));
      }
    }
    return out;
  }

  static Task<> run(Context* ctx) {
    Cloud* cloud = ctx->cloud;
    co_await cloud->provision_base_image();
    auto job = make_job(ctx, "job", kInstances, 0, net::kDefaultTenant);
    co_await deploy_phase(ctx, job.get());
    begin_workload(ctx);
    if (ctx->setup_only) co_return;

    for (int round = 0; round < kRounds; ++round) {
      std::vector<Buffer> bufs = generate(ctx, kInstances, [&](std::size_t i) {
        return state(ctx->seed, i, round);
      });
      co_await checkpoint_round(ctx, job.get(),
                                "/data/part" + std::to_string(round) + ".bin",
                                std::move(bufs));
    }
    harvest_job(ctx, job.get());
    job->dep->destroy_all();
    // Total driver loss: only the repository (and its replicas) survive.
    auto expected = std::move(job->state);
    const cr::CheckpointId last_record = job->last_record;
    job.reset();

    federation::Fabric* fed = cloud->federation();
    fed->fail_zone(0);
    auto fresh = make_job(ctx, "job", kInstances, 0, net::kDefaultTenant);
    fresh->state = std::move(expected);
    fresh->last_record = last_record;
    const std::uint64_t wan0 = fed->wan_fetch_bytes();
    cr::Session::RestartOptions opts;
    opts.node_offset = (kZones - 1) * kNodesPerZone;
    opts.cold_caches = true;
    co_await restart_phase(ctx, fresh.get(), opts);
    ctx->restart_wan_bytes = fed->wan_fetch_bytes() - wan0;
    harvest_job(ctx, fresh.get());

    ctx->checks.emplace_back("restart_wan_gt_0", ctx->restart_wan_bytes > 0);
  }
};

// --- kernels -------------------------------------------------------------------

volatile std::uint64_t g_sink = 0;

/// Host MB/s of `pass` over `bytes` per pass, repeated for >= 0.1 s.
template <typename Fn>
double throughput_mbps(std::uint64_t bytes, Fn&& pass) {
  const double t0 = host_now();
  std::uint64_t total = 0;
  do {
    pass();
    total += bytes;
  } while (host_now() - t0 < 0.1);
  return mb(total) / (host_now() - t0);
}

/// Real kernels of the commit and restart paths on the workload's own
/// chunk content.
std::map<std::string, double> kernel_probe(const std::vector<Buffer>& chunks,
                                           std::uint64_t seed) {
  std::uint64_t bytes = 0;
  std::vector<std::vector<std::byte>> encoded;
  for (const Buffer& c : chunks) {
    bytes += c.size();
    encoded.push_back(reduce::rle_encode(c.bytes()));
  }
  std::map<std::string, double> out;
  out["kernel.fnv1a_mbps"] = throughput_mbps(bytes, [&] {
    for (const Buffer& c : chunks) g_sink = g_sink + common::fnv1a(c.bytes());
  });
  out["kernel.rle_encode_mbps"] = throughput_mbps(bytes, [&] {
    for (const Buffer& c : chunks) {
      g_sink = g_sink + reduce::rle_encode(c.bytes()).size();
    }
  });
  out["kernel.rle_decode_mbps"] = throughput_mbps(bytes, [&] {
    for (const auto& e : encoded) {
      g_sink = g_sink + reduce::rle_decode(e, kChunk).size();
    }
  });
  out["kernel.xor_mbps"] = throughput_mbps(bytes, [&] {
    for (std::size_t j = 0; j < chunks.size(); ++j) {
      const Buffer x =
          redundancy::xor_combine(chunks[j], chunks[(j + 1) % chunks.size()]);
      g_sink = g_sink + x.size();
    }
  });
  out["kernel.pattern_mbps"] = throughput_mbps(bytes, [&] {
    for (std::size_t j = 0; j < chunks.size(); ++j) {
      g_sink = g_sink + Buffer::pattern(kChunk, seed + j).size();
    }
  });
  return out;
}

// --- report --------------------------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    field(key, buf);
  }
  void str(const std::string& key, const std::string& v) {
    std::string esc;
    for (const char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n') ? ' ' : c;
    }
    field(key, "\"" + esc + "\"");
  }
  void boolean(const std::string& key, bool v) {
    field(key, v ? "true" : "false");
  }
  void obj(const std::string& key, const JsonObject& o) { field(key, o.text()); }
  void nums(const std::string& key, const std::map<std::string, double>& m) {
    JsonObject o;
    for (const auto& [k, v] : m) o.num(k, v);
    obj(key, o);
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + raw;
  }
  std::string body_;
};

struct Result {
  double setup_s = 0;
  double host_wall_s = 0;
  std::map<std::string, double> sim;
  std::map<std::string, double> layers_sim;
  std::map<std::string, double> layers_host;
};

/// Turns one finished iteration into its metrics.
Result summarize(Context& ctx, Recorder& rec) {
  Cloud& cloud = *ctx.cloud;
  Result r;

  std::vector<sim::Duration> blocked, pause, publish;
  std::uint64_t shipped = 0;
  for (auto& [name, js] : ctx.jobs) {
    blocked.insert(blocked.end(), js.blocked.begin(), js.blocked.end());
    pause.insert(pause.end(), js.pause.begin(), js.pause.end());
    publish.insert(publish.end(), js.publish.begin(), js.publish.end());
  }
  // Tenant usage is per tenant, and a fresh driver reuses its tenant: count
  // each tenant once.
  std::map<net::TenantId, blob::BlobStore::TenantUsage> usage_base;
  for (auto& [name, js] : ctx.jobs) usage_base.emplace(js.tenant, js.usage_base);
  for (const auto& [tenant, base] : usage_base) {
    shipped += usage_of(&cloud, tenant).shipped_bytes - base.shipped_bytes;
  }

  r.sim["ckpt_blocked_mean_s"] = mean_s(blocked);
  r.sim["ckpt_blocked_p50_s"] = quantile_s(blocked, 0.5);
  r.sim["ckpt_blocked_p90_s"] = quantile_s(blocked, 0.9);
  r.sim["vm_pause_p50_s"] = quantile_s(pause, 0.5);
  r.sim["vm_pause_p90_s"] = quantile_s(pause, 0.9);
  r.sim["ckpt_publish_s"] = mean_s(publish);
  r.sim["ckpt_publish_p50_s"] = quantile_s(publish, 0.5);
  r.sim["restart_makespan_s"] = mean_s(ctx.restarts);
  r.sim["restart_makespan_p50_s"] = quantile_s(ctx.restarts, 0.5);
  r.sim["repo_write_mb_per_ckpt"] =
      ratio(mb(shipped), static_cast<double>(blocked.size()));
  r.sim["restart_repo_mb_per_inst"] =
      ratio(mb(ctx.src_repo), static_cast<double>(ctx.restarted_instances));
  r.sim["restart_fetch_mb_per_inst"] =
      ratio(mb(ctx.src_remote), static_cast<double>(ctx.restarted_instances));
  if (ctx.jobs.contains("small")) {
    const JobStats& small = ctx.jobs.at("small");
    r.sim["small_tenant_ckpt_p50_s"] = quantile_s(small.blocked, 0.5);
    r.sim["small_tenant_ckpt_p90_s"] = quantile_s(small.blocked, 0.9);
    r.sim["small_tenant_publish_s"] = quantile_s(small.publish, 0.5);
  }
  r.sim["samples.blocked"] = static_cast<double>(blocked.size());
  r.sim["samples.rounds"] = static_cast<double>(publish.size());
  r.sim["samples.restarts"] = static_cast<double>(ctx.restarts.size());

  const std::uint64_t events =
      cloud.simulation().events_processed() - ctx.events_at_begin;
  auto& L = r.layers_sim;
  auto& H = r.layers_host;
  L["sim.events"] = static_cast<double>(events);
  for (const auto& [name, t] : rec.totals()) {
    L[name + ".sim_s"] = sim::to_seconds(t.sim);
    H[name + ".host_s"] = t.host;
  }

  L["core.src_zero_mb"] = mb(ctx.src_zero);
  L["core.src_cache_mb"] = mb(ctx.src_cache);
  L["core.src_peer_mb"] = mb(ctx.src_peer);
  L["core.src_parity_mb"] = mb(ctx.src_parity);
  L["core.src_repo_mb"] = mb(ctx.src_repo);
  L["core.src_wan_mb"] = mb(ctx.src_wan);
  L["core.hints_sent"] = static_cast<double>(ctx.hints_sent);
  L["core.peer_copies"] = static_cast<double>(ctx.peer_copies);
  L["core.chunk_cache_hit_ratio"] =
      ratio(static_cast<double>(ctx.src_cache),
            static_cast<double>(ctx.src_cache + ctx.src_remote));

  L["cr.gc_reclaimed_mb"] = mb(ctx.gc_reclaimed);

  L["flush.blocked_s"] = sim::to_seconds(ctx.flush.blocked_time);
  L["flush.backpressure_waits"] =
      static_cast<double>(ctx.flush.backpressure_waits);
  L["flush.drains_failed"] = static_cast<double>(ctx.flush.drains_failed);

  const reduce::ReductionStats& red = ctx.reduction;
  L["reduce.raw_mb"] = mb(red.raw_bytes);
  L["reduce.shipped_ratio"] = red.shipped_ratio();
  L["reduce.dedup_hit_rate"] = red.dedup_hit_rate();
  L["reduce.zero_chunks"] = static_cast<double>(red.zero_chunks);
  L["reduce.compressed_chunks"] = static_cast<double>(red.compressed_chunks);
  std::uint64_t lookups = 0, hits = 0;
  if (cloud.config().reduction.enabled) {
    const reduce::ChunkDigestIndex* index = cloud.shared_digest_index();
    for (std::size_t s = 0; s < index->shard_count(); ++s) {
      lookups += index->shard_stats(s).lookups;
      hits += index->shard_stats(s).hits;
    }
  }
  L["reduce.index_lookups"] = static_cast<double>(lookups);
  L["reduce.index_hit_ratio"] =
      ratio(static_cast<double>(hits), static_cast<double>(lookups));

  redundancy::Manager::Stats rs;
  if (const redundancy::Manager* m = cloud.redundancy()) rs = m->stats();
  L["redundancy.encode_mb"] = mb(rs.encode_bytes);
  L["redundancy.rebuild_mb"] = mb(rs.rebuild_bytes);
  L["redundancy.resident_mb"] = mb(rs.resident_bytes);
  L["redundancy.rebuild_failures"] = static_cast<double>(rs.rebuild_failures);

  const federation::Fabric* fed = cloud.federation();
  L["federation.replicated_mb"] = fed ? mb(fed->replicated_bytes()) : 0.0;
  L["federation.wan_fetch_mb"] = fed ? mb(fed->wan_fetch_bytes()) : 0.0;
  L["federation.cross_zone_mb"] = fed ? mb(fed->cross_zone_bytes()) : 0.0;
  L["federation.restart_wan_mb"] = mb(ctx.restart_wan_bytes);

  sim::Duration small_w[3] = {0, 0, 0}, bulk_w[3] = {0, 0, 0};
  for (const auto& [name, js] : ctx.jobs) {
    const blob::BlobStore::TenantUsage u = usage_of(&cloud, js.tenant);
    sim::Duration* w = name == "small" ? small_w : bulk_w;
    w[0] += u.commit_wait - js.usage_base.commit_wait;
    w[1] += u.provider_wait - js.usage_base.provider_wait;
    w[2] += u.prefetch_wait - js.usage_base.prefetch_wait;
  }
  const char* kinds[3] = {"commit", "provider", "prefetch"};
  double small_total = 0, bulk_total = 0;
  for (int k = 0; k < 3; ++k) {
    L[std::string("qos.small_") + kinds[k] + "_wait_s"] =
        sim::to_seconds(small_w[k]);
    L[std::string("qos.bulk_") + kinds[k] + "_wait_s"] =
        sim::to_seconds(bulk_w[k]);
    small_total += sim::to_seconds(small_w[k]);
    bulk_total += sim::to_seconds(bulk_w[k]);
  }
  // The share of all admission-gate waiting borne by the weight-4 tenant:
  // what weighted-fair ordering exists to keep small.
  L["qos.small_wait_share"] = ratio(small_total, small_total + bulk_total);

  std::uint64_t version_requests = 0, provider_requests = 0;
  for (std::uint32_t z = 0; z < cloud.zones(); ++z) {
    blob::BlobStore* store = cloud.blob_store(z);
    for (std::size_t s = 0; s < store->version_manager().shard_count(); ++s) {
      version_requests += store->version_manager().shard_requests(s);
    }
    provider_requests += store->provider_manager().service().requests_served();
  }
  L["blob.version_requests"] = static_cast<double>(version_requests);
  L["blob.provider_requests"] = static_cast<double>(provider_requests);
  L["blob.repository_mb"] = mb(cloud.repository_bytes());
  L["net.fabric_mb"] = mb(cloud.fabric().total_bytes() - ctx.fabric_at_begin);
  return r;
}

struct Workload {
  const char* name;
  CloudConfig (*config)();
  Task<> (*run)(Context*);
  std::vector<Buffer> (*kernel_chunks)(std::uint64_t);
};

template <typename W>
Workload entry(const char* name) {
  return Workload{name, &W::config, &W::run, &W::kernel_chunks};
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      entry<RestartStorm>("restart_storm"),
      entry<CkptReducedAsync>("ckpt_reduced_async"),
      entry<TenantStorm>("tenant_storm"),
      entry<ZoneLoss>("zone_loss"),
  };
  return kAll;
}

constexpr std::size_t kSetups = 5;  // odd: the median is one of them

/// Sets `w` up on a fresh Cloud and stops where the workload would begin;
/// returns the set-up time as setup_s measures it.
double setup_once(const Workload& w, std::uint64_t seed) {
  Context ctx;
  ctx.seed = seed;
  ctx.setup_only = true;
  const double t_ctor = host_now();
  Cloud cloud(w.config());
  Recorder rec(&cloud, false);
  ctx.cloud = &cloud;
  ctx.rec = &rec;
  cloud.run(w.run(&ctx));
  return ctx.workload_begin_host - t_ctor;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--trace-file PATH]\n"
               "workloads:",
               argv0);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "blobcr_perf: refusing to measure an unoptimized build\n");
  return 2;
#endif
  std::string name, trace_file;
  std::uint64_t seed = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      name = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (flag == "--trace-file") {
      trace_file = argv[i + 1];
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr || argc % 2 == 0) return usage(argv[0]);
  const bool trace = !trace_file.empty();

  Context ctx;
  ctx.seed = seed;
  std::string error;
  Result r;
  std::map<std::string, double> kernels;
  double bench_s = 0;
  {
    const double t_ctor = host_now();
    Cloud cloud(w->config());
    Recorder rec(&cloud, trace);
    ctx.cloud = &cloud;
    ctx.rec = &rec;
    try {
      cloud.run(w->run(&ctx));
    } catch (const std::exception& e) {
      error = e.what();
      ++ctx.failed;
    }
    const double t_end = rec.host();
    if (error.empty()) {
      r = summarize(ctx, rec);
      r.setup_s = ctx.workload_begin_host - t_ctor;
      r.host_wall_s = t_end - ctx.workload_begin_host;
      r.layers_host["sim.host_us_per_event"] =
          ratio(r.host_wall_s * 1e6, r.layers_sim["sim.events"]);
      if (trace) rec.write_trace(trace_file);
    }
    bench_s = rec.excluded_s();
  }
  if (trace && error.empty()) kernels = kernel_probe(w->kernel_chunks(seed), seed);
  r.layers_host.insert(kernels.begin(), kernels.end());
  if (!trace && error.empty()) {
    // setup_s is the median of kSetups set-ups: the measured one, then
    // set-up-only passes, so that the workload's own host time is taken
    // in a process that has done nothing else before it.
    std::vector<double> setups = {r.setup_s};
    while (setups.size() < kSetups) setups.push_back(setup_once(*w, seed));
    std::sort(setups.begin(), setups.end());
    r.setup_s = setups[setups.size() / 2];
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  JsonObject build;
  build.str("type", BLOBCR_PERF_BUILD_TYPE);
  build.str("cxx_flags", BLOBCR_PERF_CXX_FLAGS);
  build.str("compiler", BLOBCR_PERF_COMPILER);
  JsonObject host;
  host.num("setup_s", r.setup_s);
  host.num("host_wall_s", r.host_wall_s);
  host.num("bench_s", bench_s);
  host.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  JsonObject checks;
  for (const auto& [k, v] : ctx.checks) checks.boolean(k, v);
  checks.boolean("stage_timestamps", ctx.stage_errors.empty());
  JsonObject out;
  out.str("workload", w->name);
  out.num("seed", static_cast<double>(seed));
  out.boolean("traced", trace);
  out.obj("build", build);
  out.obj("host", host);
  out.nums("sim", r.sim);
  out.nums("layers_sim", r.layers_sim);
  out.nums("layers_host", r.layers_host);
  out.obj("checks", checks);
  out.num("attempted", static_cast<double>(ctx.attempted));
  out.num("failed", static_cast<double>(ctx.failed));
  out.str("error", error);
  std::printf("%s\n", out.text().c_str());
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace blobcr::perf

int main(int argc, char** argv) { return blobcr::perf::main_impl(argc, argv); }
