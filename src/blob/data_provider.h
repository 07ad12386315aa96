// DataProvider: stores immutable chunks on one compute node's local disk.
// Chunks arrive over the fabric and are appended to a per-provider log
// (immutable data => log-structured => the disk stays near streaming rate
// even with many concurrent writers; see storage/disk.h).
//
// Every store/fetch names its tenant and is admitted at the repository
// admission plane's provider-io gate before touching the fabric or the
// disk, so weighted fairness holds when the provider pool — not the commit
// gate — is the bottleneck.
#pragma once

#include <cstdint>

#include "blob/types.h"
#include "common/buffer.h"
#include "net/fabric.h"
#include "qos/admission.h"
#include "sim/sim.h"
#include "storage/chunk_store.h"
#include "storage/disk.h"

namespace blobcr::blob {

class DataProvider {
 public:
  DataProvider(net::Fabric& fabric, net::NodeId node, storage::Disk& disk,
               std::uint64_t disk_stream, qos::AdmissionPlane& plane)
      : fabric_(&fabric), node_(node), store_(disk, disk_stream),
        plane_(&plane) {}

  net::NodeId node() const { return node_; }
  bool alive() const { return alive_; }

  /// Fail-stop: all stored chunks are lost.
  void fail() { alive_ = false; }

  /// Brings a failed provider back into service with an *empty* store (its
  /// disk content died with the node). The scavenge path repopulates it
  /// from surviving peer-tier copies; a no-op on a live provider.
  void rejoin() {
    if (alive_) return;
    store_.clear();
    alive_ = true;
  }

  /// Receives a chunk from `from` and persists it.
  sim::Task<> store(net::NodeId from, ChunkId id, common::Buffer data,
                    net::TenantId tenant) {
    if (!alive_) throw BlobError("provider down");
    qos::FairGate::Permit permit =
        co_await admit(tenant, static_cast<double>(data.size()));
    (void)permit;
    co_await fabric_->transfer(from, node_, data.size());
    if (!alive_) throw BlobError("provider died during store");
    co_await store_.put(id, std::move(data));
  }

  /// Reads a chunk and ships it to `to` over the `shape` traffic class
  /// (federation: wide-area pulls ride the WAN shape; the default is the
  /// fabric's unshaped class).
  sim::Task<common::Buffer> fetch(net::NodeId to, ChunkId id,
                                  net::TenantId tenant,
                                  net::Fabric::Shape shape = {}) {
    if (!alive_ || !store_.has(id)) throw BlobError("chunk unavailable");
    qos::FairGate::Permit permit =
        co_await admit(tenant, static_cast<double>(store_.size_of(id)));
    (void)permit;
    if (!alive_ || !store_.has(id)) throw BlobError("chunk unavailable");
    common::Buffer data = co_await store_.get(id);
    co_await fabric_->transfer(node_, to, data.size(), shape);
    co_return data;
  }

  /// Lands an already-delivered payload on this provider's disk (no fabric
  /// transfer — the replicator moved the bytes itself, over its own traffic
  /// class, before handing them over).
  sim::Task<> put_local(ChunkId id, common::Buffer data,
                        net::TenantId tenant) {
    if (!alive_) throw BlobError("provider down");
    qos::FairGate::Permit permit =
        co_await admit(tenant, static_cast<double>(data.size()));
    (void)permit;
    if (!alive_) throw BlobError("provider down");
    co_await store_.put(id, std::move(data));
  }

  bool has(ChunkId id) const { return alive_ && store_.has(id); }
  bool erase(ChunkId id) { return store_.erase(id); }

  std::uint64_t stored_bytes() const { return alive_ ? store_.stored_bytes() : 0; }
  std::size_t chunk_count() const { return alive_ ? store_.chunk_count() : 0; }

 private:
  /// Provider I/O always admits at the provider-io gate, whatever gate the
  /// caller already holds: a commit holding a commit slot must not re-enter
  /// the commit gate (self-deadlock under bounded slots), and the permit
  /// order commit→provider / prefetch→provider stays acyclic.
  sim::Task<qos::FairGate::Permit> admit(net::TenantId tenant, double cost) {
    return plane_->admit(qos::GateClass::ProviderIo, tenant, cost);
  }

  net::Fabric* fabric_;
  net::NodeId node_;
  storage::ChunkStore store_;
  qos::AdmissionPlane* plane_;
  bool alive_ = true;
};

}  // namespace blobcr::blob
