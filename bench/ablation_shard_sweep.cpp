// Ablation: metadata-plane sharding under tenant scale.
//
// T concurrent tenants share ONE BlobStore and ONE repository-scoped
// ChunkDigestIndex. Each tenant commits a snapshot through the reduction
// pipeline (part shared content — cross-tenant dedup hits — part unique),
// binds and resolves a named-blob entry, and a sample of tenants reads its
// snapshot back bit-exactly. The sweep runs every tenant count against two
// metadata-plane configurations with identical hardware and request costs:
//
//  * shards=1  — the pre-sharding plane: one version-manager queue, one
//    digest-index lock. Every create/reserve/publish/name-bind and every
//    per-chunk dedup lookup of every tenant serializes behind them.
//  * shards=16 — the sharded plane: the version-slot table and named-blob
//    registry partition by blob/name hash, the digest index by content
//    hash, one fair queue per shard.
//
// Reported per row:
//  * commit_p95_s         — p95 of per-tenant commit completion time;
//  * index_lookups_per_s  — digest-index lookups served per second of
//    repository makespan (first commit start -> last commit end).
//
// `verified` encodes the headline claim at the largest tenant count:
// sharded commit p95 is flat-or-better (<= 1.05x single-shard) AND sharded
// lookup throughput scales (>= 1.5x single-shard) — plus, for every row:
// all sampled read-backs bit-exact, every tenant committed, cross-tenant
// dedup actually hit, and (sharded rows) lookups really spread over
// multiple shards. The CI gate refuses a flip to 0.
//
// BLOBCR_BENCH_FAST=1 trims the sweep to {10, 1000} tenants; the largest
// point stays — the acceptance claim is about tenant scale.
#include "bench_common.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "blob/client.h"
#include "blob/store.h"
#include "common/strutil.h"
#include "net/fabric.h"
#include "reduce/reducer.h"
#include "reduce/reduction.h"
#include "storage/disk.h"

namespace blobcr::bench {
namespace {

using common::Buffer;

constexpr std::uint64_t kChunk = 4 * 1024;
constexpr std::size_t kChunksPerCommit = 8;   // 4 shared + 4 unique
constexpr std::size_t kSharedPool = 32;       // distinct shared contents
constexpr std::size_t kShardedConfig = 16;

double p95(std::vector<sim::Duration> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(std::max(
      0.0, std::ceil(0.95 * static_cast<double>(samples.size())) - 1.0));
  return sim::to_seconds(samples[idx]);
}

struct Row {
  double commit_p95_s = 0;
  double lookups_per_s = 0;
  double dedup_hits = 0;
  double shards_touched = 0;
  bool ok = false;
};

Buffer pool_chunk(std::size_t pool) {
  return Buffer::pattern(kChunk, 7 + static_cast<int>(pool));
}

/// One tenant's snapshot: a rotating slice of the shared pool (identical
/// content across tenants -> dedup hits resolved by whichever shard owns
/// that content) followed by tenant-unique chunks (index misses, stored).
Buffer tenant_payload(std::size_t tenant) {
  Buffer data;
  for (std::size_t i = 0; i < kChunksPerCommit / 2; ++i) {
    data.append(
        pool_chunk((tenant * (kChunksPerCommit / 2) + i) % kSharedPool));
  }
  for (std::size_t i = kChunksPerCommit / 2; i < kChunksPerCommit; ++i) {
    data.append(Buffer::pattern(
        kChunk, 1000 + static_cast<int>(tenant * kChunksPerCommit + i)));
  }
  return data;
}

struct SweepState {
  sim::Simulation* sim = nullptr;
  blob::BlobStore* store = nullptr;
  std::vector<std::unique_ptr<reduce::Reducer>> reducers;
  std::vector<net::TenantId> tenant_ids;
  net::NodeId first_client_node = 0;
  std::size_t tenants = 0;

  std::vector<sim::Duration> commit_times;
  sim::Time first_start = 0;
  sim::Time last_end = 0;
  std::size_t committed = 0;
  bool payload_ok = true;
};

sim::Task<> tenant_task(SweepState* st, std::size_t i) {
  // Staggered arrivals: tenants pile onto the shared plane, not in lockstep.
  co_await st->sim->delay(static_cast<sim::Duration>(i) *
                          20 * sim::kMicrosecond);
  blob::BlobClient client(
      *st->store, st->first_client_node + static_cast<net::NodeId>(i));
  client.set_tenant(st->tenant_ids[i]);
  const blob::BlobId blob = co_await client.create();
  const Buffer data = tenant_payload(i);

  const sim::Time t0 = st->sim->now();
  if (st->commit_times.empty() || t0 < st->first_start) st->first_start = t0;
  std::vector<blob::BlobClient::ExtentSpec> specs;
  specs.push_back({0, data.size()});
  blob::BlobClient::ExtentReader reader =
      [&data](std::uint64_t off, std::uint64_t len) -> sim::Task<Buffer> {
    co_return data.slice(off, len);
  };
  const blob::VersionId v = co_await client.write_extents_via(
      blob, std::move(specs), &reader, {.reducer = st->reducers[i].get()});
  const sim::Time t1 = st->sim->now();
  st->commit_times.push_back(t1 - t0);
  st->last_end = std::max(st->last_end, t1);
  ++st->committed;

  // The named-blob registry (name-hash sharded) is on the measured path too.
  const std::string name = common::strf("ckpt/job%zu", i);
  co_await client.bind_name(name, blob);
  if (co_await client.lookup_name(name) != blob) st->payload_ok = false;

  // Sampled restore: dedup'd + stored chunks must read back bit-exactly.
  if (i % 97 == 0 || i + 1 == st->tenants) {
    const Buffer back = co_await client.read(blob, v, 0, data.size());
    if (!(back == data)) st->payload_ok = false;
  }
}

/// One sweep point: T tenants against an S-shard metadata plane.
Row run_config(std::size_t tenants, std::size_t shards) {
  sim::Simulation sim;
  const std::size_t n_meta = 16;
  const std::size_t n_data = 8;
  const std::size_t total = 2 + n_meta + n_data + tenants + 1;  // +1: seeder
  net::Fabric::Config fcfg;
  fcfg.node_count = total;
  fcfg.nic_bandwidth_bps = 1e9;
  fcfg.latency = 100 * sim::kMicrosecond;
  net::Fabric fabric(sim, fcfg);

  blob::BlobStore::Config cfg;
  cfg.version_manager_node = 0;
  cfg.provider_manager_node = 1;
  for (std::size_t i = 0; i < n_meta; ++i) {
    cfg.metadata_nodes.push_back(static_cast<net::NodeId>(2 + i));
  }
  storage::Disk::Config dcfg;
  dcfg.bandwidth_bps = 1e9;
  dcfg.position_cost = 0;  // metadata plane, not the disks, under test
  std::vector<std::unique_ptr<storage::Disk>> disks;
  for (std::size_t i = 0; i < n_data; ++i) {
    const net::NodeId node = static_cast<net::NodeId>(2 + n_meta + i);
    disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
    cfg.data_providers.push_back({node, disks.back().get(), 1});
  }
  cfg.default_chunk_size = kChunk;
  cfg.tree_depth = 5;  // 32 leaves: fits the seeder's full-pool snapshot
  cfg.replication = 1;
  cfg.meta_request_cost = 10 * sim::kMicrosecond;
  cfg.manager_request_cost = 20 * sim::kMicrosecond;
  cfg.version_shards = shards;
  cfg.qos.enabled = true;  // fair dispatch at every shard queue
  // Effectively unbounded commit gate (> max tenant count in the sweep):
  // the shard queues stay the bottleneck under test while qos::Config's
  // validation — enabled needs at least one bounded gate — is satisfied.
  cfg.qos.commit_slots = 1024;
  blob::BlobStore store(sim, fabric, cfg);

  // The repository-scoped digest index, content-hash sharded, one fair
  // queue (= one lock) per shard charging the per-lookup cost.
  reduce::ReductionConfig rcfg;
  rcfg.enabled = true;
  rcfg.dedup = true;
  rcfg.zero_suppression = false;
  rcfg.compression = false;
  rcfg.index_shards = shards;
  reduce::ChunkDigestIndex index(shards);
  index.attach_service(sim, 100 * sim::kMicrosecond,
                       store.admission().fair_over());

  SweepState st;
  st.sim = &sim;
  st.store = &store;
  st.first_client_node = static_cast<net::NodeId>(2 + n_meta + n_data);
  st.tenants = tenants;
  for (std::size_t i = 0; i < tenants; ++i) {
    st.tenant_ids.push_back(
        store.tenants().register_tenant(common::strf("job%zu", i)));
    st.reducers.push_back(std::make_unique<reduce::Reducer>(
        std::vector<blob::BlobStore*>{&store}, rcfg, &index,
        st.tenant_ids.back()));
  }

  // Warmup: one seed commit indexes the whole shared pool, so every
  // tenant's shared-content lookups hit steady-state in BOTH configurations
  // (in the single-shard plane the queue backlog would otherwise serve all
  // lookups before the first commit records anything — zero hits by
  // accident of queueing, not by content).
  reduce::Reducer seed_reducer({&store}, rcfg, &index);
  {
    sim::ProcessPtr seed = sim.spawn(
        "seed",
        [](blob::BlobStore* bs, reduce::Reducer* red) -> sim::Task<> {
          blob::BlobClient client(*bs, 0);  // co-located with the managers
          const blob::BlobId blob = co_await client.create();
          Buffer pool;
          for (std::size_t i = 0; i < kSharedPool; ++i) {
            pool.append(pool_chunk(i));
          }
          std::vector<blob::BlobClient::ExtentSpec> specs;
          specs.push_back({0, pool.size()});
          blob::BlobClient::ExtentReader reader =
              [&pool](std::uint64_t off,
                      std::uint64_t len) -> sim::Task<Buffer> {
            co_return pool.slice(off, len);
          };
          co_await client.write_extents_via(blob, std::move(specs), &reader,
                                            {.reducer = red});
        }(&store, &seed_reducer));
    sim.run();
    if (seed->error()) std::rethrow_exception(seed->error());
  }
  // Warmup traffic is not part of the measured sweep.
  std::uint64_t seed_lookups = 0;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    seed_lookups += index.shard_stats(s).lookups;
  }

  std::vector<sim::ProcessPtr> procs;
  for (std::size_t i = 0; i < tenants; ++i) {
    procs.push_back(
        sim.spawn(common::strf("tenant%zu", i), tenant_task(&st, i)));
  }
  sim.run();
  for (const auto& p : procs) {
    if (p->error()) std::rethrow_exception(p->error());
  }

  Row row;
  row.commit_p95_s = p95(st.commit_times);
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::size_t touched = 0;
  for (std::size_t s = 0; s < index.shard_count(); ++s) {
    const reduce::ChunkDigestIndex::ShardStats& stats = index.shard_stats(s);
    lookups += stats.lookups;
    hits += stats.hits;
    if (stats.lookups > 0) ++touched;
  }
  lookups -= seed_lookups;
  const double makespan = sim::to_seconds(st.last_end - st.first_start);
  row.lookups_per_s =
      makespan > 0 ? static_cast<double>(lookups) / makespan : 0.0;
  row.dedup_hits = static_cast<double>(hits);
  row.shards_touched = static_cast<double>(touched);
  row.ok = st.payload_ok && st.committed == tenants && hits > 0 &&
           (shards == 1 || touched >= 2);
  return row;
}

void register_all() {
  std::vector<std::size_t> tenant_counts =
      fast_mode() ? std::vector<std::size_t>{10, 1000}
                  : std::vector<std::size_t>{10, 100, 1000};
  std::vector<std::size_t> shard_counts =
      fast_mode() ? std::vector<std::size_t>{1, kShardedConfig}
                  : std::vector<std::size_t>{1, 4, kShardedConfig};
  const std::size_t max_tenants =
      *std::max_element(tenant_counts.begin(), tenant_counts.end());

  // Rows are computed lazily, one sweep point per (tenants, shards), and
  // cached so the cross-configuration `verified` inequality can compare the
  // sharded row with its single-shard sibling.
  auto rows = std::make_shared<std::map<std::pair<std::size_t, std::size_t>,
                                        Row>>();
  auto ensure = [rows](std::size_t tenants, std::size_t shards) -> Row& {
    auto [it, fresh] = rows->try_emplace({tenants, shards});
    if (fresh) it->second = run_config(tenants, shards);
    return it->second;
  };

  for (const std::size_t tenants : tenant_counts) {
    for (const std::size_t shards : shard_counts) {
      const std::string name =
          common::strf("ShardSweep/t%zu/s%zu", tenants, shards);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [tenants, shards, max_tenants, ensure](benchmark::State& state) {
            const Row row = ensure(tenants, shards);
            report_seconds(state, static_cast<sim::Duration>(
                                      row.commit_p95_s * sim::kSecond));
            state.counters["commit_p95_s"] = row.commit_p95_s;
            state.counters["index_lookups_per_s"] = row.lookups_per_s;
            state.counters["dedup_hits"] = row.dedup_hits;
            state.counters["shards_touched"] = row.shards_touched;
            // The acceptance inequality binds at the largest tenant count:
            // the sharded plane must keep commit p95 flat-or-better AND
            // scale lookup throughput vs the single-shard plane.
            bool verified = row.ok;
            if (tenants == max_tenants) {
              const Row& single = ensure(tenants, 1);
              const Row& sharded = ensure(tenants, kShardedConfig);
              verified = verified && single.ok && sharded.ok &&
                         sharded.commit_p95_s <= single.commit_p95_s * 1.05 &&
                         sharded.lookups_per_s >= single.lookups_per_s * 1.5;
            }
            state.counters["verified"] = verified ? 1 : 0;
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
