// BlobStore: one deployed BlobSeer instance — a version manager, a provider
// manager, a set of metadata providers and a set of data providers spread
// over the cluster's compute nodes (paper §3.1.1: the checkpoint repository
// aggregates part of every compute node's local disk).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blob/data_provider.h"
#include "blob/metadata.h"
#include "blob/provider_manager.h"
#include "blob/types.h"
#include "blob/version_manager.h"
#include "net/fabric.h"
#include "net/tenant.h"
#include "qos/admission.h"
#include "sim/sim.h"
#include "storage/disk.h"

namespace blobcr::blob {

class BlobStore {
 public:
  /// Outstanding chunk stores (commit) and chunk fetches (read) per client.
  static constexpr std::size_t kWriteWindow = 8;
  static constexpr std::size_t kReadWindow = 8;

  struct Config {
    net::NodeId version_manager_node = 0;
    net::NodeId provider_manager_node = 0;
    std::vector<net::NodeId> metadata_nodes;
    /// (node, disk, disk stream id) per data provider.
    struct ProviderSlot {
      net::NodeId node = 0;
      storage::Disk* disk = nullptr;
      std::uint64_t disk_stream = 0;
    };
    std::vector<ProviderSlot> data_providers;

    std::uint64_t default_chunk_size = 256 * 1024;  // paper: 256 KB stripes
    std::uint32_t tree_depth = 16;  // leaves = 2^depth chunks per blob
    int replication = 1;
    sim::Duration meta_request_cost = 30 * sim::kMicrosecond;
    sim::Duration manager_request_cost = 50 * sim::kMicrosecond;
    /// Version-manager shards: the blob version-slot table partitions by
    /// blob-id hash, the named-blob registry by name hash, one request
    /// queue per shard. 1 (default) is the single-daemon pre-sharding
    /// behavior; the tenant-scale sweep raises it.
    std::size_t version_shards = 1;
    /// Multi-tenant admission control (see qos/admission.h). qos.enabled
    /// turns on weighted-fair ordering at the version/provider manager
    /// queues and every admission-plane gate (arrival order otherwise); the
    /// per-class slot counts bound concurrently admitted commits, provider
    /// I/Os and prefetches.
    qos::Config qos;
    /// Availability zone this store belongs to (federation::Fabric). Stamped
    /// into every ChunkLocation the store's clients commit.
    std::uint32_t zone = 0;
  };

  BlobStore(sim::Simulation& sim, net::Fabric& fabric, const Config& cfg)
      : sim_(&sim), fabric_(&fabric), cfg_(cfg), plane_(sim, cfg.qos) {
    for (const auto& slot : cfg.data_providers) {
      providers_.push_back(std::make_unique<DataProvider>(
          fabric, slot.node, *slot.disk, slot.disk_stream, plane_));
      by_node_[slot.node] = providers_.back().get();
    }
    std::vector<DataProvider*> raw;
    raw.reserve(providers_.size());
    for (const auto& p : providers_) raw.push_back(p.get());

    MetadataCluster::Config mcfg;
    mcfg.nodes = cfg.metadata_nodes;
    mcfg.per_request_cost = cfg.meta_request_cost;
    metadata_ = std::make_unique<MetadataCluster>(sim, fabric, mcfg);

    provider_manager_ = std::make_unique<ProviderManager>(
        sim, fabric, cfg.provider_manager_node, std::move(raw),
        cfg.manager_request_cost, plane_.fair_over());
    version_manager_ = std::make_unique<VersionManager>(
        sim, fabric, cfg.version_manager_node, cfg.manager_request_cost,
        cfg.version_shards, plane_.fair_over());
  }

  const Config& config() const { return cfg_; }
  sim::Simulation& simulation() const { return *sim_; }
  net::Fabric& fabric() const { return *fabric_; }
  VersionManager& version_manager() { return *version_manager_; }
  ProviderManager& provider_manager() { return *provider_manager_; }
  MetadataCluster& metadata() { return *metadata_; }

  DataProvider* provider_at(net::NodeId node) {
    const auto it = by_node_.find(node);
    return it == by_node_.end() ? nullptr : it->second;
  }
  const std::vector<std::unique_ptr<DataProvider>>& providers() const {
    return providers_;
  }

  /// Fail-stop of a compute node takes its data provider down with it.
  void fail_node(net::NodeId node) {
    if (DataProvider* p = provider_at(node)) p->fail();
  }

  /// Aggregate stored chunk payload across live providers.
  std::uint64_t total_stored_bytes() const {
    std::uint64_t total = 0;
    for (const auto& p : providers_) total += p->stored_bytes();
    return total;
  }
  std::uint64_t total_meta_bytes() const {
    return metadata_->stored_meta_bytes();
  }

  ChunkId& chunk_id_counter() { return next_chunk_id_; }
  NodeRef& node_ref_counter() { return next_node_ref_; }
  /// Re-bases the tree-node allocator (federation: each zone's store issues
  /// NodeRefs from a disjoint range). Call before the first commit. Every
  /// node this store holds has a ref in
  /// [first_node_ref(), node_ref_counter()); the GC indexes its per-epoch
  /// node bits from first_node_ref().
  void seed_node_refs(NodeRef first) {
    first_node_ref_ = next_node_ref_ = first;
  }
  NodeRef first_node_ref() const { return first_node_ref_; }

  // --- multi-tenant control plane -------------------------------------------

  /// The repository's admission plane: the tenant table plus one gate per
  /// admission class (commit, provider-io, restart-prefetch). Every path
  /// that touches this repository is admitted here with a tenant-tagged
  /// qos::IoContext.
  qos::AdmissionPlane& admission() { return plane_; }
  const qos::AdmissionPlane& admission() const { return plane_; }

  /// The repository-wide tenant table (identities + QoS weights). Tenant 0
  /// is the implicit default for single-job deployments.
  qos::TenantRegistry& tenants() { return plane_.tenants(); }
  const qos::TenantRegistry& tenants() const { return plane_.tenants(); }

  /// Per-tenant repository usage, read through tenant_usage_snapshot. The
  /// commit path (BlobClient) and repair passes count commits, bytes and
  /// repair copies as they happen.
  struct TenantUsage {
    std::uint64_t commits = 0;        // published commits
    std::uint64_t raw_bytes = 0;      // pre-reduction commit payload
    std::uint64_t shipped_bytes = 0;  // post-reduction payload stored
    /// Queueing, read from the gates' and queues' per-tenant clocks when the
    /// snapshot is taken. commit_wait is the commit gate plus the version-
    /// and provider-manager queues, in either QoS mode.
    sim::Duration commit_wait = 0;
    sim::Duration provider_wait = 0;  // provider-io gate
    sim::Duration prefetch_wait = 0;  // restart-prefetch gate
    /// Re-replication done on this tenant's behalf (RepairService scrubs
    /// charge each restored copy to the chunk's owning tenant).
    std::uint64_t repair_copies = 0;
    std::uint64_t repair_bytes = 0;

    TenantUsage& operator+=(const TenantUsage& o) {
      commits += o.commits;
      raw_bytes += o.raw_bytes;
      shipped_bytes += o.shipped_bytes;
      commit_wait += o.commit_wait;
      provider_wait += o.provider_wait;
      prefetch_wait += o.prefetch_wait;
      repair_copies += o.repair_copies;
      repair_bytes += o.repair_bytes;
      return *this;
    }
  };
  /// Tenant t's usage so far, with the waits filled from the gates and
  /// queues that recorded them. Drivers capture the snapshot after
  /// provisioning and diff it at job end, so reported per-job counters
  /// cover exactly that job's commits.
  TenantUsage tenant_usage_snapshot(net::TenantId t) const {
    const auto it = usage_.find(t);
    TenantUsage u = it == usage_.end() ? TenantUsage{} : it->second;
    u.commit_wait = plane_.wait(qos::GateClass::Commit, t) +
                    version_manager_->tenant_wait(t) +
                    provider_manager_->service().tenant_wait(t);
    u.provider_wait = plane_.wait(qos::GateClass::ProviderIo, t);
    u.prefetch_wait = plane_.wait(qos::GateClass::RestartPrefetch, t);
    return u;
  }
  void account_commit(net::TenantId t, std::uint64_t raw_bytes,
                      std::uint64_t shipped_bytes) {
    TenantUsage& u = usage_[t];
    ++u.commits;
    u.raw_bytes += raw_bytes;
    u.shipped_bytes += shipped_bytes;
  }
  void account_repair(net::TenantId t, std::uint64_t copies,
                      std::uint64_t bytes) {
    TenantUsage& u = usage_[t];
    u.repair_copies += copies;
    u.repair_bytes += bytes;
  }

  /// Per-tenant capacity ceilings, enforced at commit admission
  /// (BlobClient::write_extents_via) against tenant_usage_snapshot's
  /// shipped_bytes and at catalog staging (cr::Catalog). 0 = unlimited.
  struct TenantQuota {
    std::uint64_t max_resident_bytes = 0;   // shipped (post-reduction) bytes
    std::uint64_t max_catalog_records = 0;  // staged checkpoint records
  };
  void set_tenant_quota(net::TenantId t, TenantQuota q) { quotas_[t] = q; }
  const TenantQuota& tenant_quota(net::TenantId t) const {
    static const TenantQuota kUnlimited;
    const auto it = quotas_.find(t);
    return it == quotas_.end() ? kUnlimited : it->second;
  }

  /// Chunk-reclaim observers: the reduction subsystem's digest indexes must
  /// drop entries for chunks the garbage collector deletes, otherwise a
  /// later dedup hit would reference reclaimed (lost) content. Hooks are
  /// deployment-scoped objects with shorter lifetimes than the store, hence
  /// the id-based deregistration.
  using ChunkReclaimHook = std::function<void(const std::vector<ChunkId>&)>;
  std::uint64_t add_chunk_reclaim_hook(ChunkReclaimHook hook) {
    const std::uint64_t id = ++next_hook_id_;
    reclaim_hooks_.emplace_back(id, std::move(hook));
    return id;
  }
  void remove_chunk_reclaim_hook(std::uint64_t id) {
    std::erase_if(reclaim_hooks_,
                  [id](const auto& h) { return h.first == id; });
  }
  void notify_chunks_reclaimed(const std::vector<ChunkId>& ids) {
    if (ids.empty()) return;
    for (const auto& [id, hook] : reclaim_hooks_) hook(ids);
  }

  /// Pin sources: chunks referenced by in-flight reduced commits (a dedup
  /// Ref taken before the version publishes is invisible to the GC's tree
  /// walk). The GC unions every source's pins into its live set.
  using ChunkPinSource = std::function<void(std::unordered_set<ChunkId>&)>;
  std::uint64_t add_chunk_pin_source(ChunkPinSource source) {
    const std::uint64_t id = ++next_hook_id_;
    pin_sources_.emplace_back(id, std::move(source));
    return id;
  }
  void remove_chunk_pin_source(std::uint64_t id) {
    std::erase_if(pin_sources_,
                  [id](const auto& h) { return h.first == id; });
  }
  void collect_pinned_chunks(std::unordered_set<ChunkId>& out) const {
    for (const auto& [id, source] : pin_sources_) source(out);
  }

  /// Concurrent-GC epoch observers: the digest indexes log every dedup hit
  /// served while a sweep's epoch is open (a Ref taken mid-epoch may
  /// publish and unpin before the sweep's final pin collection — the log is
  /// the only surviving witness). Same id-based lifecycle as the reclaim
  /// hooks.
  using GcEpochHook = std::function<void(bool /*open*/)>;
  std::uint64_t add_gc_epoch_hook(GcEpochHook hook) {
    const std::uint64_t id = ++next_hook_id_;
    gc_epoch_hooks_.emplace_back(id, std::move(hook));
    return id;
  }
  void remove_gc_epoch_hook(std::uint64_t id) {
    std::erase_if(gc_epoch_hooks_,
                  [id](const auto& h) { return h.first == id; });
  }
  void notify_gc_epoch(bool open) {
    for (const auto& [id, hook] : gc_epoch_hooks_) hook(open);
  }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  Config cfg_;
  /// Declared before the providers and managers: the providers hold a
  /// plane reference and the managers' queues may hold a registry pointer.
  qos::AdmissionPlane plane_;
  std::unordered_map<net::TenantId, TenantUsage> usage_;
  std::unordered_map<net::TenantId, TenantQuota> quotas_;
  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::unordered_map<net::NodeId, DataProvider*> by_node_;
  std::unique_ptr<MetadataCluster> metadata_;
  std::unique_ptr<ProviderManager> provider_manager_;
  std::unique_ptr<VersionManager> version_manager_;
  ChunkId next_chunk_id_ = 1;
  NodeRef first_node_ref_ = 1;
  NodeRef next_node_ref_ = 1;
  std::vector<std::pair<std::uint64_t, ChunkReclaimHook>> reclaim_hooks_;
  std::vector<std::pair<std::uint64_t, ChunkPinSource>> pin_sources_;
  std::vector<std::pair<std::uint64_t, GcEpochHook>> gc_epoch_hooks_;
  std::uint64_t next_hook_id_ = 0;
};

}  // namespace blobcr::blob
