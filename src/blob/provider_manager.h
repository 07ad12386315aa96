// ProviderManager: allocates chunk placements. Unlike PVFS's static striping,
// allocation is load-aware: each chunk goes to the provider with the least
// cumulative assigned bytes (round-robin among ties), and the replicas of a
// chunk land on distinct providers. This is the dynamic balancing the paper
// credits for BlobSeer's write scalability under concurrency.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "blob/data_provider.h"
#include "blob/types.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "net/service.h"
#include "sim/sim.h"

namespace blobcr::blob {

/// Current whereabouts of one chunk (authoritative, unlike the immutable
/// replica list snapshotted into metadata leaves at write time).
struct ChunkPlacement {
  std::uint32_t size = 0;
  std::vector<net::NodeId> replicas;
  /// Tenant whose commit allocated the chunk — repair traffic is charged
  /// back to the owner (BlobStore::tenant_usage_snapshot), not smeared
  /// repository-wide.
  net::TenantId tenant = net::kDefaultTenant;
};

class ProviderManager {
 public:
  /// `fair_over` orders the request queue (see
  /// qos::AdmissionPlane::fair_over).
  ProviderManager(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                  std::vector<DataProvider*> providers,
                  sim::Duration per_request_cost,
                  const qos::TenantRegistry* fair_over)
      : fabric_(&fabric),
        node_(node),
        providers_(std::move(providers)),
        assigned_bytes_(providers_.size(), 0),
        service_(sim, "provider-manager", per_request_cost, fair_over) {}

  net::NodeId node() const { return node_; }
  /// The manager's request queue: weighted-fair per tenant with QoS on,
  /// arrival order with it off; it reports per-tenant waits either way.
  const net::ServiceQueue& service() const { return service_; }

  /// Allocates `chunk_sizes.size()` chunk placements with `replication`
  /// replicas each. One RPC round-trip (the request is a single message
  /// regardless of chunk count — BlobSeer clients ask once per write).
  sim::Task<std::vector<ChunkLocation>> allocate(
      net::NodeId client, const std::vector<std::uint32_t>& chunk_sizes,
      int replication, ChunkId& next_chunk_id,
      net::TenantId tenant = net::kDefaultTenant) {
    co_await fabric_->message(client, node_);
    co_await service_.process(tenant);
    std::vector<ChunkLocation> out;
    out.reserve(chunk_sizes.size());
    for (const std::uint32_t size : chunk_sizes) {
      ChunkLocation loc;
      loc.id = next_chunk_id++;
      loc.size = size;
      loc.replicas = pick_replicas(loc.id, size, replication);
      placements_[loc.id] = ChunkPlacement{size, loc.replicas, tenant};
      out.push_back(std::move(loc));
    }
    co_await fabric_->message(node_, client);
    co_return out;
  }

  /// RPC: where does chunk `id` live *now*? Readers fall back to this when
  /// every replica listed in the (immutable) metadata is gone — the repair
  /// service keeps the registry current after node losses. Empty when the
  /// chunk is unknown.
  sim::Task<std::vector<net::NodeId>> locate(
      net::NodeId client, ChunkId id,
      net::TenantId tenant = net::kDefaultTenant) {
    co_await fabric_->message(client, node_);
    co_await service_.process(tenant);
    std::vector<net::NodeId> out;
    const auto it = placements_.find(id);
    if (it != placements_.end()) out = it->second.replicas;
    co_await fabric_->message(node_, client);
    co_return out;
  }

  /// Registry access for the repair service (runs co-located with the
  /// manager, so these are local calls, not RPCs).
  const std::map<ChunkId, ChunkPlacement>& placements() const {
    return placements_;
  }
  void update_placement(ChunkId id, std::vector<net::NodeId> replicas) {
    placements_.at(id).replicas = std::move(replicas);
  }
  /// Drops a reclaimed chunk from the registry and returns where it lived
  /// (empty for an id the registry does not know).
  std::vector<net::NodeId> forget(ChunkId id) {
    auto node = placements_.extract(id);
    if (!node) return {};
    return std::move(node.mapped().replicas);
  }

  const std::vector<DataProvider*>& providers() const { return providers_; }
  std::uint64_t requests_served() const { return service_.requests_served(); }

 private:
  std::vector<net::NodeId> pick_replicas(ChunkId id, std::uint32_t size,
                                         int replication) {
    // Least-loaded-first selection over live providers. Ties break by a
    // per-chunk hash, not by index: a deterministic index order would pair
    // the same providers for every chunk, and losing that pair would lose
    // both replicas of a large chunk population at once. mix64 is a
    // bijection, so the order is total and a partial sort picks exactly the
    // providers a full sort would.
    std::vector<std::size_t> live;
    live.reserve(providers_.size());
    for (std::size_t i = 0; i < providers_.size(); ++i) {
      if (providers_[i]->alive()) live.push_back(i);
    }
    const auto want = static_cast<std::size_t>(replication);
    if (live.size() < want)
      throw BlobError("not enough live providers for replication");
    std::partial_sort(live.begin(), live.begin() + want, live.end(),
                      [this, id](std::size_t a, std::size_t b) {
                        if (assigned_bytes_[a] != assigned_bytes_[b])
                          return assigned_bytes_[a] < assigned_bytes_[b];
                        return common::mix64(id * 0x9e3779b9ULL + a) <
                               common::mix64(id * 0x9e3779b9ULL + b);
                      });
    std::vector<net::NodeId> replicas;
    replicas.reserve(want);
    for (std::size_t k = 0; k < want; ++k) {
      assigned_bytes_[live[k]] += size;
      replicas.push_back(providers_[live[k]]->node());
    }
    return replicas;
  }

  net::Fabric* fabric_;
  net::NodeId node_;
  std::vector<DataProvider*> providers_;
  std::vector<std::uint64_t> assigned_bytes_;
  std::map<ChunkId, ChunkPlacement> placements_;
  net::ServiceQueue service_;
};

}  // namespace blobcr::blob
