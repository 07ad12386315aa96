// Cloud + Deployment: the IaaS middleware of the paper's Figure 1.
//
// Cloud owns the simulated testbed (nodes, disks, fabric), the persistent
// repository (BlobSeer store for BlobCR, PVFS for the qcow baselines) and
// the uploaded base image. Deployment implements multi-deployment of VM
// instances from the base image, disk snapshots through each instance's
// node-local proxy, the checkpoint -> snapshot mapping, and restart from
// a globally consistent set of snapshots on fresh nodes. A fresh deploy, a
// restart and a migration build their instances through one path: a fresh
// instance is one whose plan names no snapshot yet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "blob/client.h"
#include "blob/store.h"
#include "common/sparse.h"
#include "federation/federation.h"
#include "common/units.h"
#include "core/chunk_cache.h"
#include "core/mirror_device.h"
#include "flush/flush.h"
#include "core/proxy.h"
#include "img/qcow.h"
#include "mpi/mpi.h"
#include "net/fabric.h"
#include "pfs/pvfs.h"
#include "pfs/pvfs_store.h"
#include "qos/admission.h"
#include "redundancy/parity.h"
#include "reduce/reduction.h"
#include "sim/sim.h"
#include "storage/disk.h"
#include "vm/guest_os.h"
#include "vm/vm_instance.h"

namespace blobcr::reduce {
class ChunkDigestIndex;
class Reducer;
}
namespace blobcr::redundancy {
class Manager;
}

namespace blobcr::core {

enum class Backend { BlobCR, Qcow2Disk, Qcow2Full };

const char* backend_name(Backend b);

struct CloudConfig {
  std::size_t compute_nodes = 120;   // paper: 120 graphene nodes
  std::size_t metadata_nodes = 20;   // paper: 20 BlobSeer metadata providers

  std::uint64_t chunk_size = 256 * 1024;  // BlobSeer stripe (paper-tuned)
  int replication = 1;

  Backend backend = Backend::BlobCR;
  /// Snapshot data-reduction pipeline on the commit path (BlobCR backend
  /// only). Off by default; see src/reduce/reduction.h for the knobs.
  reduce::ReductionConfig reduction;
  /// End-to-end QoS (BlobCR backend only): weighted-fair per-tenant
  /// ordering at the version/provider manager queues and the repository's
  /// admission plane (commit, provider-io and restart-prefetch gates), all
  /// configured here. Off (FIFO, unbounded) by default; see
  /// src/qos/admission.h.
  qos::Config qos;
  /// Version-manager shards (BlobCR backend only): blob version-slot table
  /// by blob-id hash, named-blob registry by name hash, one request queue
  /// per shard. 1 = the single-daemon pre-sharding behavior.
  std::size_t version_shards = 1;
  /// Asynchronous commit pipeline (BlobCR backend only). Off by default;
  /// see src/flush/flush.h for the knobs and failure semantics.
  flush::FlushConfig flush;
  /// Peer parity redundancy tier (BlobCR backend, requires flush.enabled:
  /// the encode rides the async drain). Off by default; see
  /// src/redundancy/parity.h for the knobs.
  redundancy::RedundancyConfig redundancy;
  /// Cross-repo federation (BlobCR backend only): federation.zones splits
  /// the compute pool into that many availability zones, each with its own
  /// BlobStore (own managers, own metadata plane, own provider slab),
  /// joined into one logical repository by federation::Fabric. The default
  /// single zone is a 1-zone fabric. Manifest registration and chunk
  /// replication ride the async drain, so zone-loss failover requires
  /// flush.enabled. See src/federation/federation.h for the knobs.
  federation::FederationConfig federation;
  bool adaptive_prefetch = true;

  vm::GuestOsConfig os = vm::GuestOsConfig::debian_like();
  vm::VmConfig vm;
};

/// One VM instance's snapshot inside a global checkpoint.
struct InstanceSnapshot {
  std::size_t instance = 0;
  Backend backend = Backend::BlobCR;
  // BlobCR: (checkpoint image, snapshot version).
  blob::BlobId image = 0;
  blob::VersionId version = 0;
  // qcow baselines: the PVFS copy and the image tables.
  std::string pvfs_path;
  img::QcowImage::State qcow_state;
  /// Per-snapshot size metric (Figure 4 / Table 1): incremental payload for
  /// BlobCR, shipped container bytes for the baselines.
  std::uint64_t bytes = 0;
  sim::Duration vm_downtime = 0;
};

struct GlobalCheckpoint {
  std::vector<InstanceSnapshot> snapshots;
  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& s : snapshots) sum += s.bytes;
    return sum;
  }
};

/// One new instance's share of an (N -> M) restart: the snapshot it boots
/// from, plus any extra source tuples it adopts as attached data volumes
/// (M < N shards). Built by cr::build_restart_plan (src/cr/remap.h). A
/// fresh deploy's plan names no snapshot: its boot tuple is the default.
struct InstancePlan {
  InstanceSnapshot boot;
  /// The first commit derives a fresh checkpoint image instead of adopting
  /// the boot tuple's: a fresh deploy has none, and an M > N clone
  /// lazy-fetches a source snapshot whose image another instance commits
  /// into (no two instances ever commit into the same image).
  bool fresh_image = false;
  std::vector<InstanceSnapshot> attached;
};

/// The instance-level payload of every restart: one InstancePlan per new
/// instance (the identity plan when the instance count is unchanged).
struct RestartPlan {
  std::vector<InstancePlan> instances;
};

class Deployment;

class Cloud {
 public:
  explicit Cloud(CloudConfig cfg);
  ~Cloud();

  sim::Simulation& simulation() { return sim_; }
  const sim::Simulation& simulation() const { return sim_; }
  /// Current simulated time, readable from const contexts (status banners,
  /// record stamping) without reaching through the mutable simulation.
  sim::Time now() const { return sim_.now(); }
  const CloudConfig& config() const { return cfg_; }
  net::Fabric& fabric() { return *fabric_; }
  /// Zone 0's store; nullptr on the PVFS baselines.
  blob::BlobStore* blob_store() { return blob_store(0); }
  /// Zone z's store; nullptr for unknown zones or non-BlobCR backends.
  blob::BlobStore* blob_store(std::uint32_t zone) {
    return zone < stores_.size() ? stores_[zone].get() : nullptr;
  }
  /// Availability zones the repository spans, one store each (0 on the
  /// PVFS baselines).
  std::size_t zones() const { return stores_.size(); }
  /// The federation fabric joining the zone stores. Never nullptr: a
  /// single-zone repository is a 1-zone fabric whose enabled() is false,
  /// and the PVFS baselines get a fabric with no zones.
  federation::Fabric* federation() { return federation_.get(); }
  /// The store owning `id` (decoded from the blob id's zone bits); nullptr
  /// on the PVFS baselines.
  blob::BlobStore* store_of_blob(blob::BlobId id) {
    return federation_->store_of_blob(id);
  }
  std::uint32_t zone_of_node(net::NodeId node) const {
    return federation_->zone_of_node(node);
  }
  /// Per-tenant capacity ceiling, installed on every zone's store.
  void set_tenant_quota(net::TenantId t, blob::BlobStore::TenantQuota q);
  /// Tenant t's repository usage (BlobStore::tenant_usage_snapshot) summed
  /// over every zone's store; all zero on the PVFS baselines.
  blob::BlobStore::TenantUsage tenant_usage(net::TenantId t) const;
  pfs::PvfsCluster* pvfs() { return pvfs_.get(); }
  storage::Disk& disk(net::NodeId node) { return *disks_.at(node); }
  std::uint64_t next_disk_stream(net::NodeId node) {
    return streams_.at(node).next();
  }

  /// The node's shared decoded-chunk cache (lazily created; one per compute
  /// node, shared by every mirroring module that ever runs there; backs the
  /// peer exchange).
  DecodedChunkCache* chunk_cache(net::NodeId node);

  /// Empties every node's decoded-chunk cache (the machines were reclaimed
  /// / reimaged). Cache objects stay alive — mirroring modules hold
  /// pointers to them — only their contents are dropped.
  void reset_chunk_caches() {
    for (auto& [node, cache] : chunk_caches_) {
      if (cache) cache->clear();
    }
  }

  net::NodeId compute_node(std::size_t i) const {
    return static_cast<net::NodeId>(i % cfg_.compute_nodes);
  }

  /// Authors the base image and uploads it to the repository. Run once,
  /// inside a simulation process, before deploying.
  sim::Task<> provision_base_image();
  bool provisioned() const { return base_uploaded_; }
  /// The base image as uploaded into zone `zone`'s store (one copy per
  /// zone, so fresh instances clone — and later commit — zone-locally); 0
  /// for unknown zones and the PVFS baselines.
  blob::BlobId base_blob(std::uint32_t zone) const {
    return zone < base_blobs_.size() ? base_blobs_[zone] : 0;
  }
  const std::string& base_pvfs_path() const { return base_pvfs_path_; }
  std::uint64_t image_size() const { return cfg_.os.image_size; }

  /// Fail-stop of a compute node (takes its data provider down with it).
  void fail_node(net::NodeId node);

  /// Bytes persisted in the checkpoint repository (payload + metadata).
  std::uint64_t repository_bytes() const;

  /// Convenience driver: spawn `body` as a process and run to completion.
  /// Rethrows the driver's error; if the event queue drains while the
  /// driver is still blocked (a deadlock — e.g. a failed guest never
  /// reaching a barrier), throws with a diagnostic.
  void run(sim::Task<> body);

  /// Monotonic sequence used to namespace per-deployment artifacts (e.g.
  /// snapshot files on PVFS).
  std::uint64_t next_deployment_seq() { return ++deployment_seq_; }

  // --- multi-tenancy --------------------------------------------------------

  /// Registers a job with the repository's tenant table and returns its
  /// TenantId (tag Deployment::Options::tenant with it). `weight` is the
  /// job's relative share at the QoS-controlled service queues. Works on
  /// every backend; only the BlobCR repository enforces weights.
  net::TenantId register_tenant(const std::string& name, double weight = 1.0);

  /// The repository-scoped chunk digest index shared by every deployment
  /// whose ReductionConfig::shared_index is on (lazily created, and
  /// registered then as a GC observer of every zone store, so it stays
  /// honest across deployment lifetimes and its dedup pins reach every
  /// store's GC). nullptr on non-BlobCR backends.
  reduce::ChunkDigestIndex* shared_digest_index();

  /// The cloud-scoped peer parity redundancy tier (lazily created, and
  /// registered then as a GC observer of every zone store, so parity groups
  /// stay honest across deployment lifetimes).
  /// Like the repository, the tier outlives any single deployment: a
  /// rollback onto fresh nodes still rebuilds the dead node's chunks from
  /// the previous deployment's surviving caches. nullptr when
  /// CloudConfig::redundancy is off or the backend is not BlobCR.
  redundancy::Manager* redundancy();

 private:
  CloudConfig cfg_;
  sim::Simulation sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<storage::Disk>> disks_;
  std::vector<storage::StreamIdAllocator> streams_;
  /// One BlobStore per availability zone, in zone-id order (empty on the
  /// PVFS baselines).
  std::vector<std::unique_ptr<blob::BlobStore>> stores_;
  /// Declared after the stores: destroyed first, while the stores (which
  /// hold it as a GC observer) never notify during destruction.
  std::unique_ptr<reduce::ChunkDigestIndex> shared_index_;
  /// Same ordering contract as shared_index_.
  std::unique_ptr<redundancy::Manager> redundancy_;
  /// Same ordering contract (a GC observer of every zone store).
  std::unique_ptr<federation::Fabric> federation_;
  std::unique_ptr<pfs::PvfsCluster> pvfs_;
  std::unordered_map<net::NodeId, std::unique_ptr<DecodedChunkCache>>
      chunk_caches_;
  common::SparseFile base_content_;
  bool base_uploaded_ = false;
  std::vector<blob::BlobId> base_blobs_;  // per zone
  std::string base_pvfs_path_;
  std::uint64_t deployment_seq_ = 0;
  net::TenantId pvfs_tenant_seq_ = 0;  // fallback ids for non-BlobCR backends
};

class Deployment {
 public:
  /// Per-job construction knobs for multi-tenant clouds. The defaults give
  /// the classic single-job deployment (default tenant).
  struct Options {
    std::size_t node_offset = 0;
    /// Repository tenant identity (from Cloud::register_tenant). Tags every
    /// repository request of this deployment's instances for QoS admission
    /// and per-tenant accounting.
    net::TenantId tenant = net::kDefaultTenant;
  };

  /// One virtual disk of an instance. Exactly one device family is
  /// populated, by backend: a BlobCR mirroring module, or a qcow2 image
  /// (a local container on a fresh deploy, the snapshot copy on PVFS after
  /// a restart) over the base image on PVFS.
  struct Volume {
    std::unique_ptr<MirrorDevice> mirror;
    std::unique_ptr<pfs::PvfsFileStore> qcow_backing;
    std::unique_ptr<storage::ByteStore> qcow_container;
    std::unique_ptr<img::QcowImage> qcow;

    img::BlockDevice& device() {
      if (mirror) return *mirror;
      return *qcow;
    }
  };

  /// An extra source snapshot an instance adopted across an elastic shrink
  /// (M < N): a full device image of one pre-rescale instance, attached as
  /// a data volume next to the boot disk. Read-only in spirit — nothing
  /// commits through it — but served by the same content-addressed restart
  /// data plane (lazy fetch, peer copies, scheduled prefetch) as the boot
  /// device.
  struct AttachedVolume : Volume {
    InstanceSnapshot source;
  };

  /// A VM instance; its Volume base is the boot disk.
  struct Instance : Volume {
    std::size_t index = 0;
    net::NodeId node = 0;
    bool failed = false;
    std::unique_ptr<vm::VmInstance> vm;
    std::unique_ptr<CheckpointProxy> proxy;
    std::uint64_t snapshot_counter = 0;
    InstanceSnapshot last_snapshot;
    /// Extra pre-rescale shards adopted by this instance (elastic M < N).
    std::vector<std::unique_ptr<AttachedVolume>> attached;
  };

  Deployment(Cloud& cloud, std::size_t instances,
             std::size_t node_offset = 0);
  Deployment(Cloud& cloud, std::size_t instances, const Options& opts);
  ~Deployment();

  std::size_t size() const { return count_; }
  Cloud& cloud() const { return *cloud_; }
  /// Attached data volumes instance i adopted across an elastic shrink
  /// (0 outside a rescaled deployment).
  std::size_t attached_count(std::size_t i) const {
    return instances_.at(i)->attached.size();
  }
  AttachedVolume& attached_volume(std::size_t i, std::size_t k) {
    return *instances_.at(i)->attached.at(k);
  }
  /// The repository tenant this deployment's instances commit as.
  net::TenantId tenant() const { return tenant_; }
  Instance& instance(std::size_t i) { return *instances_.at(i); }
  vm::VmInstance& vm(std::size_t i) { return *instances_.at(i)->vm; }
  mpi::MpiWorld& mpi() { return *mpi_; }
  PrefetchBus& prefetch_bus() { return *bus_; }
  /// The cloud-scoped peer parity tier this deployment's mirrors encode
  /// into (nullptr when CloudConfig::redundancy is off or the backend is
  /// not BlobCR). Cloud-owned so parity groups survive a rollback onto a
  /// fresh Deployment — the rebuild level is precisely for restarts whose
  /// own deployment-scoped state (bus holders, staged images) is gone.
  redundancy::Manager* redundancy() { return cloud_->redundancy(); }
  /// Deployment-wide reduction pipeline (nullptr when reduction is off or
  /// the backend is not BlobCR). Shared by all mirroring modules in every
  /// zone, like the prefetch bus, so dedup works across ranks and snapshot
  /// versions; each commit names its store's zone, so dedup Refs stay
  /// zone-local.
  reduce::Reducer* reducer() { return reducer_.get(); }

  /// True when the asynchronous commit pipeline runs on this deployment's
  /// mirroring modules (BlobCR backend with CloudConfig::flush enabled).
  bool flush_enabled() const;
  /// Waits until instance i's staged snapshots have all published;
  /// rethrows a drain failure. No-op for synchronous commits / baselines.
  sim::Task<> wait_drained(std::size_t i);

  /// Creates devices and VMs from the base image and boots all instances in
  /// parallel, through the same per-instance build as restart_from.
  sim::Task<> deploy_and_boot();

  /// Disk snapshot of one instance through its proxy (BlobCR's CLONE +
  /// COMMIT, or a container copy to PVFS on the qcow baselines, preceded by
  /// savevm on qcow2-full). Updates the instance's last-snapshot record.
  sim::Task<InstanceSnapshot> snapshot_instance(std::size_t i);

  /// Snapshots every instance in parallel (the qcow2-full driver and
  /// external checkpoint tests).
  sim::Task<GlobalCheckpoint> checkpoint_all();

  /// The most recent snapshot of every instance — the globally consistent
  /// line the middleware would pick for a restart. Mechanism layer:
  /// drivers go through cr::Session, which records this line durably in
  /// the checkpoint catalog instead of holding it in memory.
  GlobalCheckpoint collect_last_snapshots() const;

  /// Kills all instances (termination or simulated global failure).
  void destroy_all();
  /// Cold-restart semantics: the deployment's machines were reclaimed, so
  /// their decoded-chunk caches and the bus's holder registry are gone.
  /// The paper's restart experiments call this between destroy_all() and
  /// restart_from(); the FT runner does NOT — surviving nodes keep serving
  /// peer copies across a rollback (cooperative restart), and failed nodes
  /// are dropped individually by fail_instance().
  void forget_node_caches();
  /// Fail-stop of one instance's node.
  void fail_instance(std::size_t i);

  /// Tears down whatever is left and rebuilds the deployment from a
  /// per-instance plan (cr::build_restart_plan, src/cr/remap.h: the identity
  /// plan for a 1:1 restart, a shard assignment when the instance count
  /// changes) on nodes shifted by `node_offset`, booting in parallel. Each
  /// instance boots from its plan's boot snapshot (BlobCR/qcow2-disk reboot
  /// the guest OS; qcow2-full resumes from the full VM snapshot without a
  /// reboot); extra shards come up as attached data volumes; fresh_image
  /// instances derive a new checkpoint image on their first commit. The
  /// plan must stay alive until the task completes.
  sim::Task<> restart_from(const RestartPlan& plan, std::size_t node_offset);

  /// Test scaffolding (crash-harness style, like flush's stage probes):
  /// invoked with the instance index at the start of every per-instance
  /// build (deploy, restart, migration). A throwing probe models a
  /// mid-restart boot failure. nullptr disables.
  void set_restart_probe(std::function<void(std::size_t)> probe) {
    restart_probe_ = std::move(probe);
  }

  /// Migrates one instance to `target` through a disk snapshot (§3.1.3:
  /// snapshots "are much easier to migrate" than difference files). The
  /// virtual disk state as of the snapshot moves; guest processes do not
  /// survive (BlobCR/qcow2-disk reboot the guest OS; qcow2-full resumes
  /// from the full VM snapshot). Unsynced guest page-cache data is lost,
  /// exactly as for a checkpoint. Returns the end-to-end migration time
  /// (snapshot + teardown + redeploy + boot/resume).
  sim::Task<sim::Duration> migrate_instance(std::size_t i, net::NodeId target);

  /// Lazy-fetch bytes by restart ladder level, summed over every mirror:
  /// boot devices and attached volumes. Mirrors are rebuilt per restart, so
  /// right after one this covers exactly its traffic.
  SourceBytes source_bytes() const;

  /// Scavenge support (cr::Session::scavenge): best-effort recovery of one
  /// chunk's decoded payload from the peer tier — a surviving node's cache
  /// copy first, a parity-group rebuild second. Returns the payload and the
  /// node it came from, or nullopt when the tier cannot produce it.
  sim::Task<std::optional<PrefetchBus::PeerHit>> recover_chunk_payload(
      const ChunkKey& key, net::NodeId dst);

 private:
  void kill_restart_scheduler();
  /// Throws when `count_` instances cannot be placed on distinct compute
  /// nodes (the redundancy tier's durability and the peer-vs-repo byte
  /// accounting both assume one instance per node).
  void validate_placement() const;
  /// Builds instance i on `node` from its plan (a fresh deploy's plan
  /// names no snapshot; a restart's share or a one-instance migration plan
  /// does): boot volume, proxy, VM, guest boot or qcow2-full resume, then
  /// the attached volumes. `plan` must stay alive until the task completes.
  sim::Task<> build_instance(std::size_t i, net::NodeId node,
                             const InstancePlan& plan);
  /// Opens `vol` on `node` from `snap`. BlobCR: a tuple naming no snapshot
  /// (image 0) opens the zone's base image; otherwise resolves the tuple
  /// first (a dead home zone adopts it into a survivor, see
  /// federation::Fabric::resolve_restart), writes the resolved tuple back
  /// into `snap` and builds the mirror. qcow baselines: a qcow2 image over
  /// the base image on PVFS, in a fresh local container (no snapshot path)
  /// or the snapshot's PVFS copy.
  sim::Task<> open_volume(Volume& vol, net::NodeId node,
                          InstanceSnapshot& snap,
                          const flush::FlushConfig& flush);
  /// Size of a published BlobCR snapshot (new chunk payload + new
  /// metadata); 0 when `snap` names no version, or it is still provisional
  /// (an async commit the drain has not published yet).
  std::uint64_t published_bytes(const InstanceSnapshot& snap) const;
  /// A mirroring module on `node` backed by (blob, version), bound to the
  /// zone store that owns `blob` and to the deployment's reducer.
  std::unique_ptr<MirrorDevice> make_mirror(net::NodeId node,
                                            blob::BlobId blob,
                                            blob::VersionId version,
                                            const flush::FlushConfig& flush);

  Cloud* cloud_;
  std::size_t count_;
  std::size_t node_offset_;
  net::TenantId tenant_;
  std::uint64_t seq_;  // unique per deployment; namespaces snapshot files
  /// The restart scheduler runs in the background (it references the
  /// instances' mirrors, so it is killed before they are torn down).
  sim::ProcessPtr restart_scheduler_;
  std::function<void(std::size_t)> restart_probe_;
  std::unique_ptr<PrefetchBus> bus_;
  std::unique_ptr<reduce::Reducer> reducer_;
  std::unique_ptr<mpi::MpiWorld> mpi_;
  std::vector<std::unique_ptr<Instance>> instances_;
};

}  // namespace blobcr::core
