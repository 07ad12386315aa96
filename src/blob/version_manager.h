// VersionManager: the serialization point of the store. Assigns version
// numbers, records version -> (tree root, size) mappings and the blob
// registry, and implements CLONE (a new blob whose first version shares the
// source root — zero data copied).
//
// The manager is hash-sharded (BlobStore::Config::version_shards): the
// version-slot table partitions by blob-id hash and the named-blob registry
// by name hash, each shard serving requests through its own 1-worker queue
// (its lock). Commits against different blobs no longer serialize on one
// daemon; a shard's queue is still a strict serialization point for the
// blobs it owns, which is what publish-ordering correctness needs. Shard
// count 1 is byte-for-byte the pre-sharding single-daemon behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "blob/types.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "net/service.h"
#include "sim/sim.h"

namespace blobcr::blob {

class VersionManager {
 public:
  /// `fair_over` orders every shard's request queue (see
  /// qos::AdmissionPlane::fair_over).
  VersionManager(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node,
                 sim::Duration per_request_cost, std::size_t shards,
                 const qos::TenantRegistry* fair_over)
      : sim_(&sim), fabric_(&fabric), node_(node) {
    const std::size_t count = shards < 1 ? 1 : shards;
    shards_.reserve(count);
    for (std::size_t s = 0; s < count; ++s) {
      shards_.push_back(std::make_unique<Shard>(
          sim, "version-manager-" + std::to_string(s), per_request_cost,
          fair_over));
    }
  }

  net::NodeId node() const { return node_; }
  std::size_t shard_count() const { return shards_.size(); }

  /// Re-bases the blob-id allocator (federation: each zone's manager issues
  /// ids from a disjoint range, so the owning zone of any blob id is a pure
  /// decode). Call before the first create().
  void seed_blob_ids(BlobId base) { next_blob_id_ = base; }

  /// Total time `tenant`'s requests spent queued across all shard queues.
  sim::Duration tenant_wait(net::TenantId tenant) const {
    sim::Duration total = 0;
    for (const auto& s : shards_) total += s->service.tenant_wait(tenant);
    return total;
  }
  std::uint64_t shard_requests(std::size_t shard) const {
    return shards_[shard]->service.requests_served();
  }

  sim::Task<BlobId> create(net::NodeId client, std::uint64_t chunk_size,
                           net::TenantId tenant = net::kDefaultTenant) {
    // The id is allocated at request time so the create can be served by
    // the owning shard's queue (ids are opaque handles; only the registry
    // insert below needs the shard's serialization).
    const BlobId id = next_blob_id_++;
    co_await round_trip(client, tenant, shard_for_blob(id));
    BlobMeta meta;
    meta.id = id;
    meta.chunk_size = chunk_size;
    shard_for(id).blobs[id] = std::move(meta);
    co_return id;
  }

  /// CLONE: a standalone blob sharing all content with (src, v). Served by
  /// the new blob's shard; the source (possibly another shard's blob) is
  /// read with an in-process peek — it must already be published, so the
  /// read races no writer.
  sim::Task<BlobId> clone(net::NodeId client, BlobId src, VersionId v,
                          net::TenantId tenant = net::kDefaultTenant) {
    const BlobId id = next_blob_id_++;
    co_await round_trip(client, tenant, shard_for_blob(id));
    const BlobMeta& source = lookup(src);
    const VersionInfo& sv = source.version(v);
    if (sv.pending) throw BlobError("cannot clone a version not yet published");
    BlobMeta meta;
    meta.id = id;
    meta.chunk_size = source.chunk_size;
    meta.cloned_from = src;
    meta.cloned_version = v;
    VersionInfo v1;
    v1.id = 1;
    v1.root = sv.root;
    v1.size = sv.size;
    v1.created = sim_->now();
    meta.versions.push_back(v1);
    shard_for(id).blobs[id] = std::move(meta);
    co_return id;
  }

  /// Reserves the next version slot of `blob` for a deferred (asynchronous)
  /// publish. The slot is recorded as pending — invisible to readers and to
  /// latest() — until publish() fills it, so snapshot numbering stays dense
  /// and reflects stage order even when drains complete later.
  sim::Task<VersionId> reserve(net::NodeId client, BlobId blob,
                               net::TenantId tenant = net::kDefaultTenant) {
    co_await round_trip(client, tenant, shard_for_blob(blob));
    BlobMeta& meta = lookup(blob);
    VersionInfo v;
    v.id = static_cast<VersionId>(meta.versions.size() + 1);
    v.pending = true;
    v.created = sim_->now();
    meta.versions.push_back(v);
    co_return v.id;
  }

  /// Publishes a new version (shadowed snapshot). Serialized per shard —
  /// every version of one blob goes through one queue. With `reserved`
  /// non-zero the version fills that pending slot (taken via reserve())
  /// instead of appending a new one.
  sim::Task<VersionId> publish(net::NodeId client, BlobId blob, NodeRef root,
                               std::uint64_t size, std::uint64_t new_chunk_bytes,
                               std::uint64_t new_meta_bytes,
                               VersionId reserved = 0,
                               net::TenantId tenant = net::kDefaultTenant) {
    co_await round_trip(client, tenant, shard_for_blob(blob));
    BlobMeta& meta = lookup(blob);
    if (reserved != 0) {
      if (reserved > meta.versions.size())
        throw BlobError("publish into unknown reserved version");
      VersionInfo& slot = meta.versions[reserved - 1];
      if (!slot.pending)
        throw BlobError("publish into a non-pending version slot");
      slot.root = root;
      slot.size = size;
      slot.new_chunk_bytes = new_chunk_bytes;
      slot.new_meta_bytes = new_meta_bytes;
      slot.created = sim_->now();
      slot.pending = false;
      co_return reserved;
    }
    VersionInfo v;
    v.id = static_cast<VersionId>(meta.versions.size() + 1);
    v.root = root;
    v.size = size;
    v.new_chunk_bytes = new_chunk_bytes;
    v.new_meta_bytes = new_meta_bytes;
    v.created = sim_->now();
    meta.versions.push_back(v);
    co_return v.id;
  }

  sim::Task<BlobMeta> stat(net::NodeId client, BlobId blob,
                           net::TenantId tenant = net::kDefaultTenant) {
    co_await round_trip(client, tenant, shard_for_blob(blob));
    co_return lookup(blob);
  }

  /// Named-blob registry: the control plane's well-known entry points (e.g.
  /// the checkpoint catalog) bind a name to a blob id so a fresh client —
  /// a new driver process after total loss — can discover repository-
  /// resident state it never created. Last bind wins; names are never
  /// implicitly unbound. Sharded by name hash, independently of where the
  /// target blob's version slots live.
  sim::Task<> bind_name(net::NodeId client, const std::string& name,
                        BlobId id,
                        net::TenantId tenant = net::kDefaultTenant) {
    co_await round_trip(client, tenant, shard_for_name(name));
    if (!exists(id)) throw BlobError("bind_name to unknown blob");
    shards_[shard_for_name(name)]->names[name] = id;
  }

  /// Resolves a bound name; 0 when the name was never bound.
  sim::Task<BlobId> lookup_name(net::NodeId client, const std::string& name,
                                net::TenantId tenant = net::kDefaultTenant) {
    co_await round_trip(client, tenant, shard_for_name(name));
    co_return peek_name(name);
  }

  /// In-process peek at the registry (tests, bookkeeping).
  BlobId peek_name(const std::string& name) const {
    const auto& names = shards_[shard_for_name(name)]->names;
    const auto it = names.find(name);
    return it == names.end() ? 0 : it->second;
  }

  /// Zero-cost accessors for in-process bookkeeping (benchmark harness,
  /// garbage collector) — not part of the simulated client protocol.
  const BlobMeta& peek(BlobId blob) const {
    const auto& blobs = shards_[shard_for_blob(blob)]->blobs;
    const auto it = blobs.find(blob);
    if (it == blobs.end()) throw BlobError("unknown blob");
    return it->second;
  }
  bool exists(BlobId blob) const {
    const auto& blobs = shards_[shard_for_blob(blob)]->blobs;
    return blobs.find(blob) != blobs.end();
  }
  /// Visits every registered blob (replaces the pre-sharding all() map: the
  /// registry no longer lives in one container).
  void for_each_blob(const std::function<void(const BlobMeta&)>& fn) const {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      for_each_blob_in_shard(s, fn);
    }
  }
  /// Visits one shard's blobs — the concurrent GC's incremental mark walks
  /// shard by shard, yielding in between, instead of one full-store pass.
  void for_each_blob_in_shard(
      std::size_t shard, const std::function<void(const BlobMeta&)>& fn) const {
    for (const auto& [id, meta] : shards_[shard]->blobs) fn(meta);
  }
  std::uint64_t requests_served() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->service.requests_served();
    return total;
  }

  /// Removes version records < keep_from for a blob (GC support; chunk
  /// reclamation is handled by the garbage collector which walks trees).
  void drop_version_records(BlobId blob, VersionId keep_from) {
    BlobMeta& meta = lookup(blob);
    for (VersionId v = 1; v < keep_from && v <= meta.versions.size(); ++v) {
      meta.versions[v - 1].root = 0;  // tombstone
    }
  }

 private:
  struct Shard {
    Shard(sim::Simulation& sim, std::string name, sim::Duration cost,
          const qos::TenantRegistry* fair_over)
        : service(sim, std::move(name), cost, fair_over) {}
    net::ServiceQueue service;
    std::unordered_map<BlobId, BlobMeta> blobs;
    std::unordered_map<std::string, BlobId> names;
  };

  std::size_t shard_for_blob(BlobId blob) const {
    return static_cast<std::size_t>(common::mix64(blob)) % shards_.size();
  }
  std::size_t shard_for_name(const std::string& name) const {
    return static_cast<std::size_t>(
               common::mix64(std::hash<std::string>{}(name))) %
           shards_.size();
  }
  Shard& shard_for(BlobId blob) { return *shards_[shard_for_blob(blob)]; }

  BlobMeta& lookup(BlobId blob) {
    auto& blobs = shard_for(blob).blobs;
    const auto it = blobs.find(blob);
    if (it == blobs.end()) throw BlobError("unknown blob");
    return it->second;
  }

  sim::Task<> round_trip(net::NodeId client, net::TenantId tenant,
                         std::size_t shard) {
    co_await fabric_->message(client, node_);
    co_await shards_[shard]->service.process(tenant);
    co_await fabric_->message(node_, client);
  }

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
  std::vector<std::unique_ptr<Shard>> shards_;
  BlobId next_blob_id_ = 1;
};

}  // namespace blobcr::blob
