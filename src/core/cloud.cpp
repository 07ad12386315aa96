#include "core/cloud.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <tuple>

#include "common/strutil.h"
#include "flush/flush_agent.h"
#include "img/mem_device.h"
#include "redundancy/manager.h"
#include "reduce/digest_index.h"
#include "reduce/reducer.h"
#include "sim/when_all.h"
#include "vm/guest_os.h"

namespace blobcr::core {

namespace {

/// Traffic class of intra-deployment peer copies of decoded chunks (the
/// restart peer exchange and parity rebuilds): typically same-rack, so a
/// lower one-way latency than repository requests, and no rate cap beyond
/// the fabric's NIC fair share.
constexpr net::Fabric::Shape kPeerShape{50 * sim::kMicrosecond, 0};

/// Capacity of each compute node's decoded-chunk cache (decimal MB).
constexpr std::uint64_t kChunkCacheBytes = 512 * common::kMB;

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::BlobCR:
      return "BlobCR";
    case Backend::Qcow2Disk:
      return "qcow2-disk";
    case Backend::Qcow2Full:
      return "qcow2-full";
  }
  return "?";
}

// --- Cloud -------------------------------------------------------------------

Cloud::Cloud(CloudConfig cfg) : cfg_(std::move(cfg)) {
  // Incoherent QoS setups fail here for every backend (the BlobCR stores
  // validate again when their admission planes construct).
  cfg_.qos.validate();
  // Node layout: [0, C) compute nodes, then service nodes. The compute pool
  // splits into Z contiguous zone slabs and each zone gets its own
  // service-node set; Z == 1 is the classic layout (and node numbering).
  const std::size_t c = cfg_.compute_nodes;
  const std::size_t zones =
      cfg_.backend == Backend::BlobCR
          ? std::max<std::size_t>(1, cfg_.federation.zones)
          : 1;
  if (zones > c) {
    throw std::invalid_argument(common::strf(
        "federation of %zu zones needs at least one compute node per zone "
        "(%zu available)",
        zones, c));
  }
  std::size_t total = c;
  struct ZoneNodes {
    net::NodeId vm_mgr = 0;
    net::NodeId pm = 0;
    std::vector<net::NodeId> meta;
  };
  std::vector<ZoneNodes> znodes(zones);
  const std::size_t meta_per_zone =
      std::max<std::size_t>(1, cfg_.metadata_nodes / zones);
  for (std::size_t z = 0; z < zones; ++z) {
    znodes[z].vm_mgr = static_cast<net::NodeId>(total++);
    znodes[z].pm = static_cast<net::NodeId>(total++);
    for (std::size_t i = 0; i < meta_per_zone; ++i) {
      znodes[z].meta.push_back(static_cast<net::NodeId>(total++));
    }
  }
  const net::NodeId pvfs_meta = static_cast<net::NodeId>(total++);

  net::Fabric::Config fcfg;
  fcfg.node_count = total;
  fabric_ = std::make_unique<net::Fabric>(sim_, fcfg);

  disks_.reserve(total);
  streams_.resize(total);
  for (std::size_t n = 0; n < total; ++n) {
    disks_.push_back(
        std::make_unique<storage::Disk>(sim_, storage::Disk::Config{}));
  }

  federation_ =
      std::make_unique<federation::Fabric>(sim_, *fabric_, cfg_.federation);
  if (cfg_.backend == Backend::BlobCR) {
    const std::size_t slab = c / zones;
    for (std::size_t z = 0; z < zones; ++z) {
      const std::size_t begin = z * slab;
      const std::size_t end = (z + 1 == zones) ? c : (z + 1) * slab;
      blob::BlobStore::Config bcfg;
      bcfg.version_manager_node = znodes[z].vm_mgr;
      bcfg.provider_manager_node = znodes[z].pm;
      bcfg.metadata_nodes = znodes[z].meta;
      for (std::size_t n = begin; n < end; ++n) {
        bcfg.data_providers.push_back({static_cast<net::NodeId>(n),
                                       disks_[n].get(),
                                       streams_[n].next()});
      }
      bcfg.default_chunk_size = cfg_.chunk_size;
      bcfg.replication = cfg_.replication;
      bcfg.qos = cfg_.qos;
      bcfg.version_shards = cfg_.version_shards;
      bcfg.zone = static_cast<std::uint32_t>(z);
      auto store = std::make_unique<blob::BlobStore>(sim_, *fabric_, bcfg);
      // Disjoint id ranges per zone: a blob/chunk id decodes to its home
      // zone, and replica copies can keep their origin ChunkId anywhere.
      // Zone 0's range starts at 1, the counters' default.
      store->version_manager().seed_blob_ids(
          1 + (static_cast<blob::BlobId>(z)
               << federation::Fabric::kBlobZoneShift));
      store->chunk_id_counter() =
          1 + (static_cast<blob::ChunkId>(z)
               << federation::Fabric::kChunkZoneShift);
      store->seed_node_refs(1 + (static_cast<blob::NodeRef>(z)
                                 << federation::Fabric::kChunkZoneShift));
      federation_->add_zone(store.get(), static_cast<net::NodeId>(begin),
                            static_cast<net::NodeId>(end));
      stores_.push_back(std::move(store));
    }
  } else {
    pfs::PvfsCluster::Config pcfg;
    pcfg.meta_node = pvfs_meta;
    for (std::size_t n = 0; n < c; ++n) {
      pcfg.io_servers.push_back(
          {static_cast<net::NodeId>(n), disks_[n].get()});
    }
    pvfs_ = std::make_unique<pfs::PvfsCluster>(sim_, *fabric_, pcfg);
  }
}

Cloud::~Cloud() {
  // Kill any still-live processes while the services they reference exist.
  sim_.shutdown();
}

void Cloud::run(sim::Task<> body) {
  auto p = sim_.spawn("driver", std::move(body));
  sim_.run();
  if (p->error()) std::rethrow_exception(p->error());
  if (!p->finished()) {
#ifdef BLOBCR_DEBUG_STALL
    for (const auto& pr : sim_.debug_processes()) {
      if (pr && !pr->finished()) fprintf(stderr, "STALLED: %s\n", pr->name().c_str());
    }
#endif
    // The queue drained with the driver still blocked: some process it was
    // waiting on died or deadlocked. Surface any failed process's error.
    sim_.shutdown();
    throw std::runtime_error(
        "simulation stalled: driver blocked when the event queue drained "
        "(a guest process likely failed before reaching a barrier)");
  }
}

sim::Task<> Cloud::provision_base_image() {
  if (base_uploaded_) co_return;
  // Author the image offline.
  img::MemDevice author(cfg_.os.image_size);
  co_await vm::GuestOs::build_image(author, cfg_.os);
  base_content_ = author.content();

  // Upload from the client side (node 0 stands in for the cloud client's
  // entry point; upload time is part of provisioning, not of any figure).
  if (cfg_.backend == Backend::BlobCR) {
    // Chunk-aligned extents; FS regions are 256 KiB-aligned so real
    // metadata never shares a chunk with phantom data.
    std::vector<blob::Extent> extents;
    const std::uint64_t cs = cfg_.chunk_size;
    const std::uint64_t end = base_content_.size();  // last written byte
    std::uint64_t run_begin = 0;
    bool in_run = false;
    common::Buffer run_data;
    for (std::uint64_t off = 0; off < end; off += cs) {
      const std::uint64_t len = std::min(cs, end - off);
      common::Buffer piece = base_content_.read(off, len);
      if (!in_run) {
        run_begin = off;
        run_data = std::move(piece);
        in_run = true;
      } else {
        run_data.overwrite(off - run_begin, piece);
      }
      if (run_data.size() >= 64 * cs) {  // bound extent size
        extents.push_back({run_begin, std::move(run_data)});
        run_data = common::Buffer();
        in_run = false;
      }
    }
    if (in_run) extents.push_back({run_begin, std::move(run_data)});
    // One copy of the base image per zone, uploaded from the zone's first
    // compute node: a fresh instance clones its zone's copy, so its later
    // commits stay zone-local (the federation's placement affinity).
    const std::size_t slab = cfg_.compute_nodes / stores_.size();
    base_blobs_.clear();
    for (std::size_t z = 0; z < stores_.size(); ++z) {
      blob::BlobClient client(*stores_[z],
                              static_cast<net::NodeId>(z * slab));
      const blob::BlobId blob = co_await client.create(cfg_.chunk_size);
      std::vector<blob::Extent> copy = extents;
      (void)co_await client.write_extents(blob, std::move(copy));
      base_blobs_.push_back(blob);
    }
  } else {
    base_pvfs_path_ = "/images/base.raw";
    pfs::PvfsClient client(*pvfs_, compute_node(0));
    const pfs::FileId file = co_await client.create(base_pvfs_path_);
    // Ship the authored extents as-is (raw image on PVFS).
    std::uint64_t off = 0;
    const std::uint64_t total = base_content_.size();
    constexpr std::uint64_t kPiece = 16 * 1024 * 1024;
    while (off < total) {
      const std::uint64_t len = std::min(kPiece, total - off);
      co_await client.write(file, off, base_content_.read(off, len));
      off += len;
    }
  }
  base_uploaded_ = true;
}

net::TenantId Cloud::register_tenant(const std::string& name, double weight) {
  // PVFS baselines have no QoS-enforcing repository; ids still namespace
  // per-job artifacts and counters.
  if (stores_.empty()) return ++pvfs_tenant_seq_;
  // Same registration order on every zone store => the same TenantId
  // everywhere, so one id tags a job's requests across the federation.
  net::TenantId id = net::kDefaultTenant;
  for (auto& s : stores_) id = s->tenants().register_tenant(name, weight);
  return id;
}

void Cloud::set_tenant_quota(net::TenantId t, blob::BlobStore::TenantQuota q) {
  for (auto& s : stores_) s->set_tenant_quota(t, q);
}

blob::BlobStore::TenantUsage Cloud::tenant_usage(net::TenantId t) const {
  blob::BlobStore::TenantUsage sum;
  for (const auto& s : stores_) sum += s->tenant_usage_snapshot(t);
  return sum;
}

DecodedChunkCache* Cloud::chunk_cache(net::NodeId node) {
  auto& slot = chunk_caches_[node];
  if (!slot) slot = std::make_unique<DecodedChunkCache>(kChunkCacheBytes);
  return slot.get();
}

reduce::ChunkDigestIndex* Cloud::shared_digest_index() {
  if (stores_.empty()) return nullptr;
  if (shared_index_ == nullptr) {
    shared_index_ = std::make_unique<reduce::ChunkDigestIndex>(
        cfg_.reduction.index_shards);
    // Repository-lifetime hooks (one set, owned here): entries must drop
    // when the GC reclaims chunks, epoch logging must open/close with the
    // concurrent sweep, and logged hits must count as pinned — all even
    // while no deployment (and thus no reducer) is alive, e.g. a retention
    // sweep between jobs.
    // Every zone's store shares the one index — its GC must invalidate
    // entries and its sweeps must see epoch hits just like zone 0's.
    for (auto& s : stores_) {
      s->add_chunk_reclaim_hook(
          [index =
               shared_index_.get()](const std::vector<blob::ChunkId>& ids) {
            index->forget_chunks(ids);
          });
      s->add_gc_epoch_hook([index = shared_index_.get()](bool open) {
        if (open) {
          index->open_gc_epoch();
        } else {
          index->close_gc_epoch();
        }
      });
      s->add_chunk_pin_source(
          [index = shared_index_.get()](
              std::unordered_set<blob::ChunkId>& out) {
            index->collect_epoch_hits(out);
          });
    }
    federation_->set_digest_index(shared_index_.get());
  }
  return shared_index_.get();
}

redundancy::Manager* Cloud::redundancy() {
  if (stores_.empty() || !cfg_.redundancy.enabled) return nullptr;
  if (redundancy_ == nullptr) {
    redundancy_ = std::make_unique<redundancy::Manager>(
        sim_, *fabric_, cfg_.redundancy, kPeerShape);
    // One repository-lifetime reclaim hook: GC reclaim of a member chunk
    // invalidates its whole parity group (no orphaned parity blocks), even
    // while no deployment is alive — e.g. a retention sweep between jobs.
    for (auto& s : stores_) {
      s->add_chunk_reclaim_hook(
          [mgr = redundancy_.get()](const std::vector<blob::ChunkId>& ids) {
            mgr->forget_chunks(ids);
          });
    }
  }
  return redundancy_.get();
}

void Cloud::fail_node(net::NodeId node) {
  // Provider slabs are disjoint across zones — at most one store reacts.
  for (auto& s : stores_) s->fail_node(node);
}

std::uint64_t Cloud::repository_bytes() const {
  if (pvfs_) return pvfs_->total_stored_bytes();
  std::uint64_t total = 0;
  for (const auto& s : stores_) {
    total += s->total_stored_bytes() + s->total_meta_bytes();
  }
  return total;
}

// --- Deployment -----------------------------------------------------------------

Deployment::Deployment(Cloud& cloud, std::size_t instances,
                       std::size_t node_offset)
    : Deployment(cloud, instances, Options{node_offset, net::kDefaultTenant,
                                           std::nullopt}) {}

Deployment::Deployment(Cloud& cloud, std::size_t instances,
                       const Options& opts)
    : cloud_(&cloud),
      count_(instances),
      node_offset_(opts.node_offset),
      tenant_(opts.tenant),
      flush_cfg_(opts.flush.has_value() ? *opts.flush : cloud.config().flush),
      seq_(cloud.next_deployment_seq()) {
  bus_ = std::make_unique<PrefetchBus>(cloud.simulation(), kPeerShape);
  if (cloud.config().backend == Backend::BlobCR &&
      cloud.config().reduction.enabled) {
    // The digest index is repository-scoped by default — concurrent jobs
    // dedup against each other's committed chunks — while the reducer
    // (stats, epochs, in-flight pins) stays deployment-scoped.
    // One reducer per zone: the reducer's store drives dedup's preferred
    // zone, in-flight pin registration and the zone-local Ref check, so it
    // must match the store a mirror actually commits against.
    for (std::uint32_t z = 0; z < cloud.zones(); ++z) {
      reducers_.push_back(std::make_unique<reduce::Reducer>(
          *cloud.blob_store(z), cloud.config().reduction,
          cloud.config().reduction.shared_index ? cloud.shared_digest_index()
                                                : nullptr,
          tenant_));
    }
  }
  mpi_ = std::make_unique<mpi::MpiWorld>(cloud.simulation(), cloud.fabric());
  validate_placement();
}

void Deployment::validate_placement() const {
  const std::size_t c = cloud_->config().compute_nodes;
  if (count_ > c) {
    // compute_node() wraps modulo the pool, so a deployment wider than the
    // pool would silently co-locate two instances on one physical node —
    // breaking the redundancy tier's distinct-node durability assumption
    // and corrupting peer-vs-repository byte accounting. Refuse loudly.
    throw std::invalid_argument(common::strf(
        "deployment of %zu instances cannot be placed on %zu compute nodes "
        "without co-locating two instances on one node",
        count_, c));
  }
}

Deployment::~Deployment() {
  kill_restart_scheduler();
  destroy_all();
}

void Deployment::build_instance_fresh(std::size_t i, net::NodeId node) {
  auto inst = std::make_unique<Instance>();
  inst->index = i;
  inst->node = node;
  Cloud& cloud = *cloud_;
  const CloudConfig& cfg = cloud.config();

  if (cfg.backend == Backend::BlobCR) {
    // Placement affinity: a fresh instance clones its own zone's base image
    // so its commits land in the zone-local repository.
    inst->mirror = make_mirror(node, cloud.base_blob(cloud.zone_of_node(node)),
                               1, flush_cfg_);
    inst->proxy = std::make_unique<CheckpointProxy>(cloud.simulation(),
                                                    cloud.fabric(), node);
  } else {
    // The qcow chain is opened inside boot_instance (needs a coroutine).
    inst->qdisk_proxy = std::make_unique<QcowDiskProxy>(cloud.simulation(),
                                                        cloud.fabric(), node);
    inst->qfull_proxy = std::make_unique<QcowFullProxy>(cloud.simulation(),
                                                        cloud.fabric(), node);
  }
  instances_.push_back(std::move(inst));
}

sim::Task<> Deployment::boot_instance(std::size_t i) {
  Instance& inst = *instances_.at(i);
  Cloud& cloud = *cloud_;
  const CloudConfig& cfg = cloud.config();

  if (cfg.backend != Backend::BlobCR && !inst.qcow) {
    // qemu-img create -b <base-on-pvfs> <local qcow2>.
    auto backing = co_await pfs::PvfsFileStore::open(
        *cloud.pvfs(), inst.node, cloud.base_pvfs_path(), false);
    inst.qcow_backing = std::move(backing);
    inst.qcow_container = std::make_unique<storage::LocalFile>(
        cloud.disk(inst.node), cloud.next_disk_stream(inst.node));
    img::QcowImage::Config qcfg;
    qcfg.virtual_size = cloud.image_size();
    inst.qcow = std::make_unique<img::QcowImage>(
        *inst.qcow_container, inst.qcow_backing.get(), qcfg);
    inst.qcow_dev = std::make_unique<img::QcowDevice>(*inst.qcow);
  }

  vm::VmConfig vmc = cfg.vm;
  vmc.name = common::strf("vm%zu", inst.index);
  inst.vm = std::make_unique<vm::VmInstance>(cloud.simulation(), inst.node,
                                             inst.device(), vmc);
  co_await vm::GuestOs::boot(*inst.vm, cfg.os);
}

sim::Task<> Deployment::deploy_and_boot() {
  assert(cloud_->provisioned() && "provision_base_image() first");
  instances_.clear();
  for (std::size_t i = 0; i < count_; ++i) {
    build_instance_fresh(i, cloud_->compute_node(node_offset_ + i));
  }
  std::vector<sim::Task<>> boots;
  boots.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) boots.push_back(boot_instance(i));
  co_await sim::when_all(cloud_->simulation(), std::move(boots));
}

sim::Task<InstanceSnapshot> Deployment::snapshot_instance(std::size_t i) {
  Instance& inst = *instances_.at(i);
  const CloudConfig& cfg = cloud_->config();
  InstanceSnapshot snap;
  snap.instance = i;
  snap.backend = cfg.backend;
  ++inst.snapshot_counter;

  if (cfg.backend == Backend::BlobCR) {
    const CheckpointProxy::Result r =
        co_await inst.proxy->request_checkpoint(*inst.vm, *inst.mirror);
    snap.image = r.image;
    snap.version = r.version;
    snap.vm_downtime = r.vm_downtime;
    // Snapshot size: incremental chunk payload + new metadata. A
    // provisional (async) version doesn't know its size yet — the record
    // fills in when the drain publishes.
    const blob::BlobMeta& meta =
        cloud_->store_of_blob(r.image)->version_manager().peek(r.image);
    if (r.version != 0) {
      const blob::VersionInfo& v = meta.version(r.version);
      if (!v.pending) snap.bytes = v.new_chunk_bytes + v.new_meta_bytes;
    }
  } else if (cfg.backend == Backend::Qcow2Disk) {
    const std::string path = common::strf(
        "/ckpt/d%llu_inst%zu_v%llu.qcow2",
        static_cast<unsigned long long>(seq_), i,
        static_cast<unsigned long long>(inst.snapshot_counter));
    const QcowSnapshotResult r = co_await inst.qdisk_proxy->request_checkpoint(
        *inst.vm, *inst.qcow, *inst.qcow_container, *cloud_->pvfs(), path);
    snap.pvfs_path = r.pvfs_path;
    snap.qcow_state = r.state;
    snap.bytes = r.bytes;
    snap.vm_downtime = r.vm_downtime;
  } else {
    const std::string path = common::strf(
        "/ckpt/d%llu_inst%zu_full_v%llu.qcow2",
        static_cast<unsigned long long>(seq_), i,
        static_cast<unsigned long long>(inst.snapshot_counter));
    const QcowSnapshotResult r = co_await inst.qfull_proxy->request_checkpoint(
        *inst.vm, *inst.qcow, *inst.qcow_container, *cloud_->pvfs(), path,
        inst.last_snapshot.pvfs_path);
    snap.pvfs_path = r.pvfs_path;
    snap.qcow_state = r.state;
    snap.bytes = r.bytes;
    snap.vm_downtime = r.vm_downtime;
  }
  inst.last_snapshot = snap;
  co_return snap;
}

sim::Task<GlobalCheckpoint> Deployment::checkpoint_all() {
  auto result = std::make_shared<GlobalCheckpoint>();
  result->snapshots.resize(count_);
  std::vector<sim::Task<>> tasks;
  tasks.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    tasks.push_back(
        [](Deployment* self, std::size_t idx,
           std::shared_ptr<GlobalCheckpoint> out) -> sim::Task<> {
          out->snapshots[idx] = co_await self->snapshot_instance(idx);
        }(this, i, result));
  }
  co_await sim::when_all(cloud_->simulation(), std::move(tasks));
  co_return *result;
}

GlobalCheckpoint Deployment::collect_last_snapshots() const {
  GlobalCheckpoint ckpt;
  for (const auto& inst : instances_) {
    InstanceSnapshot snap = inst->last_snapshot;
    // An async snapshot recorded while still provisional has bytes == 0;
    // once the drain published, the version record knows the size — refresh
    // so Fig4/Table1-style accounting sees drained snapshots.
    if (snap.backend == Backend::BlobCR && snap.image != 0 &&
        snap.version != 0 && snap.bytes == 0 &&
        cloud_->store_of_blob(snap.image)->version_manager().exists(
            snap.image)) {
      const blob::BlobMeta& meta =
          cloud_->store_of_blob(snap.image)->version_manager().peek(snap.image);
      if (snap.version <= meta.versions.size()) {
        const blob::VersionInfo& v = meta.version(snap.version);
        if (!v.pending) snap.bytes = v.new_chunk_bytes + v.new_meta_bytes;
      }
    }
    ckpt.snapshots.push_back(std::move(snap));
  }
  return ckpt;
}

void Deployment::destroy_all() {
  for (auto& inst : instances_) {
    if (inst && inst->vm) inst->vm->destroy();
  }
}

void Deployment::forget_node_caches() {
  bus_->drop_all_holders();
  cloud_->reset_chunk_caches();
  // Every cache was emptied, so every parity group's payloads and blocks
  // are gone with them.
  if (redundancy::Manager* mgr = cloud_->redundancy()) mgr->drop_all();
}

void Deployment::fail_instance(std::size_t i) {
  Instance& inst = *instances_.at(i);
  inst.failed = true;
  if (inst.vm) inst.vm->destroy();
  // Fail-stop takes the node's drain agent down with it: an in-flight
  // drain dies mid-stage (its pins and index entries are withdrawn as the
  // frame unwinds) and staged generations are lost.
  if (inst.mirror && inst.mirror->flush_agent() != nullptr) {
    inst.mirror->flush_agent()->fail_stop();
  }
  // The node's decoded-chunk cache dies with the node: peers must not be
  // offered copies a dead machine can no longer serve, and a replacement
  // instance later placed on this node id must come up cold.
  bus_->drop_node(inst.node);
  if (DecodedChunkCache* cache = cloud_->chunk_cache(inst.node)) {
    cache->clear();
  }
  // Open parity groups touching the node die with it, as do sealed groups
  // whose parity *holder* it was (their blocks are gone with the cache);
  // sealed groups where it was only a member stay — rebuilding this node's
  // members is exactly what the tier is for.
  if (redundancy::Manager* mgr = cloud_->redundancy()) mgr->drop_node(inst.node);
  cloud_->fail_node(inst.node);
}

bool Deployment::flush_enabled() const {
  return cloud_->config().backend == Backend::BlobCR && flush_cfg_.enabled;
}

sim::Task<> Deployment::wait_drained(std::size_t i) {
  Instance& inst = *instances_.at(i);
  if (inst.mirror) co_await inst.mirror->wait_drained();
}

sim::Task<> Deployment::build_instance(std::size_t i, net::NodeId node,
                                       const InstancePlan& plan) {
  if (restart_probe_) restart_probe_(i);
  auto inst = std::make_unique<Instance>();
  inst->index = i;
  inst->node = node;
  Cloud& cloud = *cloud_;
  const CloudConfig& cfg = cloud.config();

  // The instance records the *resolved* tuple so later restarts and
  // retention act on an adopted lineage.
  InstanceSnapshot& snap = inst->last_snapshot;
  snap = plan.boot;
  co_await open_volume(*inst, node, snap, flush_cfg_);
  if (cfg.backend == Backend::BlobCR) {
    // Subsequent checkpoints land in the same checkpoint image — except for
    // an elastic clone (M > N), which shares its source tuple with another
    // instance and must derive a fresh image on its first commit instead.
    if (!plan.fresh_image) {
      inst->mirror->set_checkpoint_blob(snap.image, snap.version);
    }
    inst->proxy = std::make_unique<CheckpointProxy>(cloud.simulation(),
                                                    cloud.fabric(), node);
  } else {
    inst->qdisk_proxy = std::make_unique<QcowDiskProxy>(cloud.simulation(),
                                                        cloud.fabric(), node);
    inst->qfull_proxy = std::make_unique<QcowFullProxy>(cloud.simulation(),
                                                        cloud.fabric(), node);
  }

  vm::VmConfig vmc = cfg.vm;
  vmc.name = common::strf("vm%zu-r", i);
  inst->vm = std::make_unique<vm::VmInstance>(cloud.simulation(), node,
                                              inst->device(), vmc);
  instances_[i] = std::move(inst);
  Instance& ref = *instances_[i];

  if (cfg.backend == Backend::Qcow2Full) {
    // Resume from the full snapshot: load the VM state, no reboot.
    (void)co_await ref.qcow->load_vm_state();
    co_await cloud.simulation().delay(500 * sim::kMillisecond);  // resume cpu
    // The resumed guest's file system, re-mounted from the virtual disk.
    // (The model does not serialize the guest page cache into the RAM
    // snapshot, so unsynced dirty pages do not survive a full-VM resume.)
    ref.vm->adopt_fs(co_await guestfs::SimpleFs::mount(ref.device()));
  } else {
    co_await vm::GuestOs::boot(*ref.vm, cfg.os);
  }

  // Extra shards (elastic M < N) come up as attached data volumes on the
  // same node, served by the same restart data plane as the boot device.
  for (const InstanceSnapshot& src : plan.attached) {
    auto vol = std::make_unique<AttachedVolume>();
    vol->source = src;
    // Nothing commits through a data volume: no async drain, but the
    // parity tier still protects chunks its fetches seed into the cache.
    co_await open_volume(*vol, node, vol->source, flush::FlushConfig{});
    ref.attached.push_back(std::move(vol));
  }
}

void Deployment::kill_restart_scheduler() {
  if (restart_scheduler_ && !restart_scheduler_->finished()) {
    restart_scheduler_->kill();
  }
  restart_scheduler_ = nullptr;
}

sim::Task<> Deployment::restart_from(const RestartPlan& plan,
                                     std::size_t node_offset) {
  kill_restart_scheduler();  // it references the mirrors cleared below
  destroy_all();
  // Fresh namespace for post-restart snapshot files.
  seq_ = cloud_->next_deployment_seq();
  node_offset_ = node_offset;
  count_ = plan.instances.size();
  validate_placement();
  instances_.clear();
  instances_.resize(count_);
  std::vector<sim::Task<>> boots;
  boots.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    boots.push_back(build_instance(i, cloud_->compute_node(node_offset + i),
                                   plan.instances[i]));
  }
  co_await sim::when_all(cloud_->simulation(), std::move(boots));

  // Restart scheduler: resolve every attached mirror's snapshot to chunk
  // identity tuples and start popularity-ordered background prefetch
  // (most-shared chunks first), so one repository fetch per distinct chunk
  // feeds the whole deployment through peer copies while the guests
  // restore. The bus iterates ALL attached mirrors — elastic shrink's
  // attached data volumes are in the popularity order automatically. Runs
  // as a background process — control-plane resolution overlaps the
  // restore instead of serializing inside the restart window.
  const CloudConfig& cfg = cloud_->config();
  if (cfg.backend == Backend::BlobCR && cfg.adaptive_prefetch) {
    restart_scheduler_ = cloud_->simulation().spawn(
        "restart-scheduler",
        bus_->schedule_restart_prefetch(qos::kRestartPrefetchBudget));
  }
}

sim::Task<> Deployment::open_volume(Volume& vol, net::NodeId node,
                                    InstanceSnapshot& snap,
                                    const flush::FlushConfig& flush) {
  Cloud& cloud = *cloud_;
  if (cloud.config().backend == Backend::BlobCR) {
    // Resolve before the mirror binds a store (identity on a live zone or a
    // 1-zone fabric).
    std::tie(snap.image, snap.version) =
        co_await cloud.federation()->resolve_restart(snap.image, snap.version,
                                                     node, tenant_);
    vol.mirror = make_mirror(node, snap.image, snap.version, flush);
    co_return;
  }
  // The snapshot file is opened straight through the PVFS mount.
  vol.qcow_backing = co_await pfs::PvfsFileStore::open(
      *cloud.pvfs(), node, cloud.base_pvfs_path(), false);
  vol.qcow_container = co_await pfs::PvfsFileStore::open(
      *cloud.pvfs(), node, snap.pvfs_path, false);
  img::QcowImage::Config qcfg;
  qcfg.virtual_size = cloud.image_size();
  vol.qcow = std::make_unique<img::QcowImage>(
      *vol.qcow_container, vol.qcow_backing.get(), qcfg);
  co_await vol.qcow->open_existing(snap.qcow_state);
  vol.qcow_dev = std::make_unique<img::QcowDevice>(*vol.qcow);
}

sim::Task<sim::Duration> Deployment::migrate_instance(std::size_t i,
                                                      net::NodeId target) {
  const sim::Time t0 = cloud_->simulation().now();
  InstancePlan plan;
  plan.boot = co_await snapshot_instance(i);
  instances_.at(i)->vm->destroy();
  // Fresh namespace: the rebuilt instance's snapshot counter restarts at 0,
  // and its files must not overwrite the pre-migration checkpoint files.
  seq_ = cloud_->next_deployment_seq();
  co_await build_instance(i, target, plan);
  co_return cloud_->simulation().now() - t0;
}

std::unique_ptr<MirrorDevice> Deployment::make_mirror(
    net::NodeId node, blob::BlobId blob, blob::VersionId version,
    const flush::FlushConfig& flush) {
  Cloud& cloud = *cloud_;
  MirrorDevice::Config mcfg;
  mcfg.capacity = cloud.image_size();
  mcfg.flush = flush;
  mcfg.tenant = tenant_;
  mcfg.redundancy = cloud.redundancy();
  federation::Fabric& repo = *cloud.federation();
  const std::uint32_t zone = repo.store_of_blob(blob)->config().zone;
  reduce::Reducer* reducer =
      reducers_.empty() ? nullptr : reducers_[zone].get();
  return std::make_unique<MirrorDevice>(
      repo, node, cloud.disk(node), cloud.next_disk_stream(node), blob,
      version, mcfg, *cloud.chunk_cache(node),
      cloud.config().adaptive_prefetch ? bus_.get() : nullptr, reducer);
}

SourceBytes Deployment::source_bytes() const {
  SourceBytes sum;
  const auto add = [&sum](const Volume& vol) {
    if (vol.mirror) sum += vol.mirror->source_bytes();
  };
  for (const auto& inst : instances_) {
    if (!inst) continue;
    add(*inst);
    for (const auto& vol : inst->attached) add(*vol);
  }
  return sum;
}

sim::Task<std::optional<PrefetchBus::PeerHit>>
Deployment::recover_chunk_payload(const ChunkKey& key, net::NodeId dst) {
  // A surviving node's cached copy first: a real intra-deployment transfer
  // through the bus's fan-out accounting, like any restart peer copy.
  if (auto peer = co_await bus_->copy_from_peer(key, dst, cloud_->fabric())) {
    co_return std::move(peer);
  }
  // Parity-group rebuild second.
  if (redundancy::Manager* mgr = cloud_->redundancy()) {
    if (auto rebuilt = co_await mgr->rebuild(key, dst)) {
      co_return PrefetchBus::PeerHit{dst, std::move(*rebuilt)};
    }
  }
  // Last resort: scan the attached caches directly — content can be
  // resident on a node that never published to the bus (e.g. seeded by the
  // parity encode path on a deployment without adaptive prefetch).
  for (const auto& inst : instances_) {
    if (!inst || inst->failed || !inst->mirror) continue;
    DecodedChunkCache* cache = cloud_->chunk_cache(inst->node);
    if (cache == nullptr) continue;
    if (const common::Buffer* hit = cache->get(key)) {
      common::Buffer data = *hit;
      co_await cloud_->fabric().transfer(inst->node, dst, data.size(),
                                         bus_->peer_shape());
      co_return PrefetchBus::PeerHit{inst->node, std::move(data)};
    }
  }
  co_return std::nullopt;
}

}  // namespace blobcr::core
