// RepairService: restores the replication factor of the checkpoint
// repository after fail-stop node losses (§3.1.1: "each chunk is replicated
// on multiple local disks in order to survive failures" — surviving one
// failure is only half the story; re-replication is what keeps the *next*
// failure survivable).
//
// The service runs co-located with the provider manager and scrubs its
// placement registry: every chunk whose live replica count dropped below the
// target is copied from a surviving replica to the least-loaded live
// provider that does not already hold it, and the registry is updated so
// readers' locate() fail-over finds the new home. Copies are window-limited
// and move provider-to-provider over the fabric (the service only
// orchestrates; the data never passes through it).
#pragma once

#include <map>
#include <vector>

#include "blob/store.h"
#include "sim/sim.h"
#include "sim/when_all.h"

namespace blobcr::blob {

class RepairService {
 public:
  struct Report {
    std::size_t chunks_scanned = 0;
    /// Replica copies created (a chunk two replicas short counts twice).
    std::size_t copies_made = 0;
    /// Chunks below target that could not be brought back up (no live
    /// source or no eligible destination).
    std::size_t unrepairable = 0;
    /// Chunks with zero live replicas: data loss the repair cannot undo.
    std::size_t lost = 0;
    std::uint64_t bytes_copied = 0;
    sim::Duration duration = 0;
    /// Repair traffic attributed to the tenant whose commit allocated each
    /// chunk (mirrored into BlobStore::tenant_usage_snapshot by the pass).
    struct TenantRepair {
      std::size_t copies = 0;
      std::uint64_t bytes = 0;
    };
    std::map<net::TenantId, TenantRepair> by_tenant;
  };

  explicit RepairService(BlobStore& store) : store_(&store) {}

  /// One scrub pass: brings every chunk back to `target_replication` live
  /// replicas where possible. `window` bounds concurrent copies.
  sim::Task<Report> repair(int target_replication, std::size_t window = 8) {
    if (target_replication < 1)
      throw BlobError("repair: target replication must be >= 1");
    ProviderManager& pm = store_->provider_manager();
    Report report;
    const sim::Time t0 = store_->simulation().now();

    std::vector<sim::Task<>> copies;
    for (const auto& [id, placement] : pm.placements()) {
      ++report.chunks_scanned;
      std::vector<net::NodeId> live;
      for (const net::NodeId node : placement.replicas) {
        DataProvider* p = store_->provider_at(node);
        if (p != nullptr && p->has(id)) live.push_back(node);
      }
      if (live.empty()) {
        ++report.lost;
        continue;
      }
      const int deficit = target_replication - static_cast<int>(live.size());
      if (deficit <= 0) continue;

      // The least-loaded live providers that do not hold it yet.
      std::vector<net::NodeId> homes;
      for (const DataProvider* p : store_->least_loaded_providers(live)) {
        if (homes.size() == static_cast<std::size_t>(deficit)) break;
        homes.push_back(p->node());
      }
      if (homes.size() < static_cast<std::size_t>(deficit))
        ++report.unrepairable;
      if (homes.empty()) continue;

      for (const net::NodeId dst : homes) {
        copies.push_back(
            copy_chunk(id, live.front(), dst, placement.tenant, &report));
        live.push_back(dst);
      }
      pm.update_placement(id, std::move(live));
      report.copies_made += homes.size();
    }
    co_await sim::run_window(store_->simulation(), window, std::move(copies));
    report.duration = store_->simulation().now() - t0;
    co_return report;
  }

  /// Live replicas of a chunk right now (test/inspection helper).
  std::size_t live_replicas(ChunkId id) const {
    const auto& placements = store_->provider_manager().placements();
    const auto it = placements.find(id);
    if (it == placements.end()) return 0;
    std::size_t n = 0;
    for (const net::NodeId node : it->second.replicas) {
      DataProvider* p = store_->provider_at(node);
      if (p != nullptr && p->has(id)) ++n;
    }
    return n;
  }

  /// Chunks whose live replica count is below `target` (0 after a
  /// successful repair pass unless data was outright lost).
  std::size_t under_replicated(int target) const {
    std::size_t n = 0;
    for (const auto& [id, placement] : store_->provider_manager().placements()) {
      const std::size_t live = live_replicas(id);
      if (live > 0 && live < static_cast<std::size_t>(target)) ++n;
    }
    return n;
  }

 private:
  sim::Task<> copy_chunk(ChunkId id, net::NodeId src, net::NodeId dst,
                         net::TenantId tenant, Report* report) {
    DataProvider* source = store_->provider_at(src);
    DataProvider* dest = store_->provider_at(dst);
    // Local read at the source (loopback), then one fabric hop src -> dst.
    // Repair traffic rides the provider-io gate under the chunk's owning
    // tenant, so scrub bursts are arbitrated like any other disk I/O.
    common::Buffer data = co_await source->fetch(src, id, tenant);
    const std::uint64_t bytes = data.size();
    report->bytes_copied += bytes;
    Report::TenantRepair& tr = report->by_tenant[tenant];
    ++tr.copies;
    tr.bytes += bytes;
    store_->account_repair(tenant, 1, bytes);
    co_await dest->store(src, id, std::move(data), tenant);
  }

  BlobStore* store_;
};

}  // namespace blobcr::blob
