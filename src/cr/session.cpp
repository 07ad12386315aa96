#include "cr/session.h"

#include <algorithm>
#include <exception>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <map>

#include "blob/gc.h"
#include "blob/store.h"
#include "common/strutil.h"
#include "cr/remap.h"
#include "pfs/pvfs.h"
#include "redundancy/manager.h"
#include "reduce/rle.h"

namespace blobcr::cr {

using core::Deployment;
using sim::Task;

namespace {

/// The job's catalog: the default name namespaced by `job`, run as the
/// deployment's tenant.
Catalog::Config catalog_config(const Deployment& dep, const std::string& job) {
  Catalog::Config cfg;
  if (!job.empty()) cfg.name += "/" + job;
  cfg.tenant = dep.tenant();
  return cfg;
}

}  // namespace

Session::Session(Deployment& deployment, Config cfg)
    : dep_(&deployment),
      cfg_(std::move(cfg)),
      catalog_(deployment.cloud(), catalog_config(deployment, cfg_.job)) {}

Task<> Session::init_lineage() {
  co_await catalog_.open();
  if (lineage_init_) co_return;
  lineage_init_ = true;
  // A fresh session descends from whatever the repository says was the last
  // complete line (0 on a virgin repository).
  for (const CheckpointRecord& rec : catalog_.records()) {
    if (rec.selectable()) lineage_head_ = rec.id;
  }
}

Task<> Session::mark_incomplete(CheckpointId id) {
  for (const CheckpointRecord& rec : catalog_.records()) {
    if (rec.id != id || rec.state != RecordState::Staged) continue;
    CheckpointRecord dead = rec;
    dead.state = RecordState::Incomplete;
    co_await catalog_.update(std::move(dead));
    co_return;
  }
}

Task<> Session::stage_last(std::string tag) {
  co_await init_lineage();
  // A dangling staged record (its epoch failed before publishing) can never
  // complete — supersede it before staging the new line.
  if (staged_ != 0) {
    co_await mark_incomplete(staged_);
    staged_ = 0;
  }
  CheckpointRecord rec;
  rec.parent = lineage_head_;
  rec.tag = std::move(tag);
  rec.snapshots = dep_->collect_last_snapshots().snapshots;
  rec = co_await catalog_.stage(std::move(rec));
  staged_ = rec.id;
}

Task<CheckpointRecord> Session::publish_staged() {
  if (staged_ == 0)
    throw CrError("publish_staged: no checkpoint record is staged");
  CheckpointRecord rec;
  bool found = false;
  for (const CheckpointRecord& r : catalog_.records()) {
    if (r.id == staged_) {
      rec = r;
      found = true;
      break;
    }
  }
  if (!found) throw CrError("staged checkpoint record vanished from catalog");

  // Refresh the tuples: provisional (async) snapshots recorded bytes == 0
  // at stage time; the published version records know their sizes now.
  rec.snapshots = dep_->collect_last_snapshots().snapshots;

  // A record is Complete only when every snapshot is *published*. Callers
  // must have drained first (the protocol's drain barrier / commit_last);
  // finding a still-pending version here means the line is not global.
  if (dep_->cloud().blob_store() != nullptr) {
    for (const core::InstanceSnapshot& s : rec.snapshots) {
      if (s.backend != core::Backend::BlobCR || s.image == 0 ||
          s.version == 0) {
        continue;
      }
      // Commit affinity can land each instance's image in its own zone.
      const blob::BlobMeta& meta =
          dep_->cloud().store_of_blob(s.image)->version_manager().peek(
              s.image);
      if (s.version > meta.versions.size() ||
          meta.version(s.version).pending) {
        co_await abandon_staged();
        throw CrError("checkpoint record " + std::to_string(rec.id) +
                      " cannot complete: instance " +
                      std::to_string(s.instance) +
                      "'s snapshot never published");
      }
    }
  }

  // A committed global checkpoint is a durability boundary for the peer
  // parity tier too: partially filled groups seal now, so every chunk this
  // record references is rebuildable — not just those whose group happened
  // to fill during the drain.
  if (redundancy::Manager* mgr = dep_->redundancy()) mgr->seal_open_groups();

  rec.state = RecordState::Complete;
  co_await catalog_.update(rec);
  staged_ = 0;
  lineage_head_ = rec.id;
  last_committed_ = rec;
  if (cfg_.auto_retention) (void)co_await apply_retention();
  co_return rec;
}

Task<> Session::abandon_staged() {
  if (staged_ == 0) co_return;
  const CheckpointId dead = staged_;
  staged_ = 0;
  co_await mark_incomplete(dead);
}

Task<CheckpointRecord> Session::commit_last(std::string tag) {
  co_await stage_last(std::move(tag));
  std::exception_ptr drain_error;
  try {
    // Async pipeline: a complete global checkpoint means globally published.
    for (std::size_t i = 0; i < dep_->size(); ++i) {
      co_await dep_->wait_drained(i);
    }
  } catch (...) {
    drain_error = std::current_exception();
  }
  if (drain_error) {
    // The drain died mid-publish: the staged record can never complete.
    co_await abandon_staged();
    std::rethrow_exception(drain_error);
  }
  co_return co_await publish_staged();
}

Task<CheckpointRecord> Session::checkpoint(std::string tag) {
  co_await init_lineage();
  (void)co_await dep_->checkpoint_all();
  co_return co_await commit_last(std::move(tag));
}

Task<> Session::clone_qcow_containers(core::RestartPlan& plan) {
  pfs::PvfsClient client(*dep_->cloud().pvfs(), Catalog::kClientNode);
  for (std::size_t i = 0; i < plan.instances.size(); ++i) {
    core::InstancePlan& ip = plan.instances[i];
    if (!ip.fresh_image || ip.boot.backend != core::Backend::Qcow2Disk)
      continue;
    const std::string dst = common::strf(
        "/ckpt/rescale_d%llu_inst%zu.qcow2",
        static_cast<unsigned long long>(dep_->cloud().next_deployment_seq()),
        i);
    const std::uint64_t total = co_await client.stat_size(ip.boot.pvfs_path);
    const pfs::FileId src = co_await client.open(ip.boot.pvfs_path);
    const pfs::FileId file = co_await client.create(dst);
    constexpr std::uint64_t kPiece = 16 * 1024 * 1024;
    std::uint64_t off = 0;
    while (off < total) {
      const std::uint64_t len = std::min(kPiece, total - off);
      co_await client.write(file, off, co_await client.read(src, off, len));
      off += len;
    }
    ip.boot.pvfs_path = dst;
  }
}

Task<CheckpointRecord> Session::restart(const Selector& sel,
                                        const RestartOptions& opts) {
  // Zone loss first: if the catalog's home zone died, rebind it to a
  // survivor (recovering the record set from replicated frames when this
  // driver never opened the log) *before* any catalog read touches dead
  // providers.
  co_await catalog_.rehome_if_dead();
  co_await init_lineage();
  CheckpointRecord rec = co_await catalog_.select(sel);
  // Whatever was staged (by this session or a dead driver this catalog was
  // recovered from) can never complete once the deployment rolls back.
  staged_ = 0;
  for (const CheckpointRecord& r : catalog_.records()) {
    if (r.state == RecordState::Staged) co_await mark_incomplete(r.id);
  }

  // Build the plan (a copy of the tuples) BEFORE touching the deployment:
  // a refused rescale (a qcow2-full record) leaves it running, and a failed
  // restart leaves `rec` whole for a retry.
  core::RestartPlan plan = build_restart_plan(
      rec.snapshots,
      opts.instances == 0 ? rec.snapshots.size() : opts.instances);
  if (dep_->cloud().pvfs() != nullptr) co_await clone_qcow_containers(plan);
  dep_->destroy_all();
  if (opts.cold_caches) dep_->forget_node_caches();
  co_await dep_->restart_from(plan, opts.node_offset);
  lineage_head_ = rec.id;
  co_return std::move(rec);
}

namespace {

/// Maps a recovered *decoded* payload back to the stored form the metadata
/// leaf describes, so a later read decodes it bit-exactly. Every encoding
/// is deterministic, so re-encoding the same logical bytes reproduces the
/// same stored payload the dead provider held.
common::Buffer encode_for_store(const blob::ChunkLocation& loc,
                                const common::Buffer& decoded) {
  switch (loc.encoding) {
    case blob::ChunkEncoding::Raw:
    case blob::ChunkEncoding::Zero:
      return decoded;
    case blob::ChunkEncoding::Rle:
      // RLE leaves are only ever written for fully-real payloads; a phantom
      // recovery (modeled-RS rebuild) cannot happen for them, but stay
      // honest if it somehow does.
      if (!decoded.fully_real()) return common::Buffer::phantom(loc.size);
      return common::Buffer::real(reduce::rle_encode(decoded.bytes()));
    case blob::ChunkEncoding::PhantomRatio:
      // Stored form is a size-only placeholder at the modeled ratio.
      return common::Buffer::phantom(loc.size);
  }
  return decoded;
}

}  // namespace

Task<ScavengeReport> Session::scavenge() {
  co_await init_lineage();
  core::Cloud& cloud = dep_->cloud();
  if (cloud.blob_store() == nullptr)
    throw CrError("scavenge requires the BlobCR backend");
  ScavengeReport rep;

  // 1. Bring every zone's failed providers back into service with empty
  //    stores (the outage wiped their disks).
  for (std::uint32_t z = 0; z < cloud.zones(); ++z)
    for (const auto& p : cloud.blob_store(z)->providers()) p->rejoin();

  // 2. The working set: every payload-bearing leaf referenced by a record
  //    that must stay restartable, deduplicated by ChunkId. An ordered map
  //    keeps the restore sequence deterministic. Each image resolves
  //    through a client of the store that owns it.
  std::map<blob::BlobStore*, blob::BlobClient> clients;
  std::map<blob::ChunkId, blob::ChunkLocation> want;
  for (const CheckpointRecord& r : catalog_.records()) {
    if (r.state != RecordState::Complete && r.state != RecordState::Staged)
      continue;
    for (const core::InstanceSnapshot& s : r.snapshots) {
      if (s.backend != core::Backend::BlobCR || s.image == 0 || s.version == 0)
        continue;
      blob::BlobStore* store = cloud.store_of_blob(s.image);
      const blob::BlobMeta& meta = store->version_manager().peek(s.image);
      if (s.version > meta.versions.size()) continue;
      const std::uint64_t size = meta.version(s.version).size;
      if (size == 0) continue;
      blob::BlobClient& client =
          clients.try_emplace(store, *store, Catalog::kClientNode)
              .first->second;
      client.set_tenant(dep_->tenant());
      const auto refs =
          co_await client.resolve_chunks(s.image, s.version, 0, size);
      for (const blob::BlobClient::ChunkRef& ref : refs) {
        if (!ref.loc.hole()) want.emplace(ref.loc.id, ref.loc);
      }
    }
  }
  rep.chunks_checked = want.size();

  // 3. Re-create every chunk with no surviving replica from the peer tier,
  //    in the store of the chunk's zone, and point that store's placement
  //    registry at the new homes.
  redundancy::Manager* mgr = dep_->redundancy();
  const std::uint64_t parity_before = mgr ? mgr->stats().rebuild_bytes : 0;
  for (const auto& [id, loc] : want) {
    blob::BlobStore* store = cloud.blob_store(loc.zone);
    blob::ProviderManager& pm = store->provider_manager();
    std::vector<net::NodeId> live;
    const auto place = pm.placements().find(id);
    if (place != pm.placements().end()) {
      for (const net::NodeId n : place->second.replicas) {
        blob::DataProvider* p = store->provider_at(n);
        if (p != nullptr && p->has(id)) live.push_back(n);
      }
    }
    if (!live.empty()) {
      // A survivor (e.g. a provider that rejoined with data, or a partial
      // outage) — just prune the dead replicas from the registry.
      if (place->second.replicas != live) pm.update_placement(id, live);
      continue;
    }
    // Least-loaded live provider takes the restored copy (the manager's
    // usual balance policy, applied to the scavenge stream).
    const std::vector<blob::DataProvider*> targets =
        store->least_loaded_providers();
    if (targets.empty()) {
      ++rep.unrecoverable;
      continue;
    }
    blob::DataProvider* target = targets.front();
    const auto payload =
        co_await dep_->recover_chunk_payload(core::ChunkKey::of(loc),
                                             target->node());
    if (!payload.has_value()) {
      ++rep.unrecoverable;
      continue;
    }
    common::Buffer stored = encode_for_store(loc, payload->data);
    const std::uint64_t stored_bytes = stored.size();
    co_await target->store(target->node(), id, std::move(stored),
                           dep_->tenant());
    if (place != pm.placements().end())
      pm.update_placement(id, {target->node()});
    ++rep.chunks_restored;
    rep.bytes_restored += stored_bytes;
  }
  rep.parity_bytes_rebuilt =
      (mgr ? mgr->stats().rebuild_bytes : 0) - parity_before;

  // 4. The catalog log's own chunks died with the repository: rewrite the
  //    in-memory record set into a fresh blob under the same name.
  co_await catalog_.rebuild();
  rep.catalog_records = catalog_.records().size();
  co_return rep;
}

Task<std::uint64_t> Session::apply_retention() {
  co_await catalog_.open();
  const RetentionPolicy& pol = cfg_.retention;
  if (pol.keep_last == 0) co_return 0;

  // Keep the newest keep_last Complete records (+ tagged ones).
  std::vector<CheckpointId> complete;
  for (const CheckpointRecord& r : catalog_.records()) {
    if (r.state == RecordState::Complete) complete.push_back(r.id);
  }
  std::unordered_set<CheckpointId> kept;
  const std::size_t n = complete.size();
  for (std::size_t i = n > pol.keep_last ? n - pol.keep_last : 0; i < n; ++i) {
    kept.insert(complete[i]);
  }
  std::vector<CheckpointRecord> retire;
  for (const CheckpointRecord& r : catalog_.records()) {
    if (r.state != RecordState::Complete || kept.count(r.id) != 0) continue;
    if (!r.tag.empty()) continue;
    retire.push_back(r);
  }
  if (retire.empty()) co_return 0;
  for (CheckpointRecord r : retire) {
    r.state = RecordState::Retired;
    co_await catalog_.update(std::move(r));
  }

  std::uint64_t reclaimed = 0;
  core::Cloud& cloud = dep_->cloud();
  if (cloud.blob_store() != nullptr) {
    // Per-image floors from every record that must stay restartable (or is
    // still in flight): versions below a floor are handed to the GC; images
    // referenced by no such record (abandoned lineages) are dropped whole.
    std::unordered_map<blob::BlobId, blob::VersionId> floor;
    std::unordered_map<blob::BlobId, blob::VersionId> drop_max;
    for (const CheckpointRecord& r : catalog_.records()) {
      const bool keeper = r.state == RecordState::Complete ||
                          r.state == RecordState::Staged;
      for (const core::InstanceSnapshot& s : r.snapshots) {
        if (s.image == 0 || s.version == 0) continue;
        if (keeper) {
          const auto it = floor.find(s.image);
          floor[s.image] = it == floor.end() ? s.version
                                             : std::min(it->second, s.version);
        } else {
          const auto it = drop_max.find(s.image);
          drop_max[s.image] = it == drop_max.end()
                                  ? s.version
                                  : std::max(it->second, s.version);
        }
      }
    }
    // One GC epoch per store: the mark must walk every live tree of the
    // store whatever it drops, so the pass hands all of a store's drops to
    // one collect(). Images live in the zone store that owns them, and the
    // catalog log rides its home store's epoch. Keyed by zone, so the
    // stores collect in a fixed order.
    std::map<std::uint32_t, std::vector<blob::GarbageCollector::Drop>> drops;
    const auto add = [&](blob::GarbageCollector::Drop d) {
      drops[cloud.store_of_blob(d.blob)->config().zone].push_back(d);
    };
    for (const auto& [image, keep_from] : floor) {
      if (keep_from > 1) add({image, keep_from});
    }
    for (const auto& [image, max_dropped] : drop_max) {
      if (floor.count(image) == 0) add({image, max_dropped + 1});
    }
    if (const auto log = catalog_.log_drop()) add(*log);
    for (auto& [zone, store_drops] : drops) {
      blob::GarbageCollector gc(*cloud.federation()->store(zone));
      reclaimed +=
          (co_await gc.collect(std::move(store_drops))).reclaimed_bytes;
    }
  } else {
    // qcow2-disk: retired snapshot copies on PVFS are whole files; remove
    // the ones no kept record references. (qcow2-full already removes its
    // previous copy at each new checkpoint — leave those alone.)
    std::unordered_set<std::string> kept_paths;
    for (const CheckpointRecord& r : catalog_.records()) {
      if (r.state != RecordState::Complete && r.state != RecordState::Staged)
        continue;
      for (const core::InstanceSnapshot& s : r.snapshots) {
        if (!s.pvfs_path.empty()) kept_paths.insert(s.pvfs_path);
      }
    }
    pfs::PvfsClient client(*cloud.pvfs(), Catalog::kClientNode);
    for (const CheckpointRecord& r : retire) {
      for (const core::InstanceSnapshot& s : r.snapshots) {
        if (s.backend != core::Backend::Qcow2Disk || s.pvfs_path.empty() ||
            kept_paths.count(s.pvfs_path) != 0) {
          continue;
        }
        try {
          reclaimed += co_await client.stat_size(s.pvfs_path);
          co_await client.remove(s.pvfs_path);
        } catch (const pfs::PvfsError&) {
          // Already gone (e.g. removed with a failed node) — nothing to do.
        }
      }
    }
  }
  gc_reclaimed_bytes_ += reclaimed;
  co_return reclaimed;
}

}  // namespace blobcr::cr
