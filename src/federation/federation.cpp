#include "federation/federation.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "reduce/digest_index.h"

namespace blobcr::federation {

namespace {

/// Wire size of one replicated manifest leaf tuple (control-plane cost of
/// shipping the per-commit manifest delta to sibling zones).
constexpr std::uint64_t kManifestRecordBytes = 48;

}  // namespace

Fabric::~Fabric() {
  for (const Zone& z : zones_) z.store->remove_gc_observer(this);
}

void Fabric::add_zone(blob::BlobStore* store, net::NodeId compute_begin,
                      net::NodeId compute_end) {
  Zone z;
  z.store = store;
  z.compute_begin = compute_begin;
  z.compute_end = compute_end;
  store->add_gc_observer(this);
  zones_.push_back(z);
}

std::uint32_t Fabric::zone_of_node(net::NodeId node) const {
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (node >= zones_[z].compute_begin && node < zones_[z].compute_end) {
      return static_cast<std::uint32_t>(z);
    }
  }
  return 0;
}

blob::BlobStore* Fabric::store_of_blob(blob::BlobId id) const {
  if (zones_.empty()) return nullptr;
  const std::uint32_t z = zone_of_blob(id);
  return zones_[z < zones_.size() ? z : 0].store;
}

std::uint32_t Fabric::first_live_zone() const {
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (!zones_[z].dead) return static_cast<std::uint32_t>(z);
  }
  throw blob::BlobError("federation: no live zone remains");
}

void Fabric::fail_zone(std::uint32_t zone) {
  if (zone >= zones_.size() || zones_[zone].dead) return;
  zones_[zone].dead = true;
  for (const auto& p : zones_[zone].store->providers()) {
    if (p->alive()) p->fail();
  }
}

std::uint32_t Fabric::buddy_of(std::uint32_t origin) const {
  for (std::size_t k = 1; k < zones_.size(); ++k) {
    const auto z =
        static_cast<std::uint32_t>((origin + k) % zones_.size());
    if (alive(z)) return z;
  }
  return static_cast<std::uint32_t>(zones_.size());
}

void Fabric::forget_chunks(const std::vector<blob::ChunkId>& ids) {
  for (const blob::ChunkId id : ids) {
    popular_.erase(id);
    const auto it = replicas_.find(id);
    if (it == replicas_.end()) continue;
    for (const Replica& r : it->second) {
      if (blob::DataProvider* p = store(r.zone)->provider_at(r.node)) {
        p->erase(id);
      }
    }
    replicas_.erase(it);
  }
}

blob::DataProvider* Fabric::find_source(const blob::ChunkLocation& loc,
                                        std::uint32_t* src_zone) const {
  if (alive(loc.zone) && loc.zone < zones_.size()) {
    blob::BlobStore* st = store(loc.zone);
    for (const net::NodeId n : loc.replicas) {
      blob::DataProvider* p = st->provider_at(n);
      if (p != nullptr && p->has(loc.id)) {
        *src_zone = loc.zone;
        return p;
      }
    }
  }
  const auto it = replicas_.find(loc.id);
  if (it != replicas_.end()) {
    for (const Replica& r : it->second) {
      if (!alive(r.zone)) continue;
      blob::DataProvider* p = store(r.zone)->provider_at(r.node);
      if (p != nullptr && p->has(loc.id)) {
        *src_zone = r.zone;
        return p;
      }
    }
  }
  return nullptr;
}

sim::Task<bool> Fabric::replicate_chunk(blob::ChunkLocation loc,
                                        std::uint32_t dest) {
  if (loc.id == 0 || dest >= zones_.size() || !alive(dest)) co_return false;
  if (const auto it = replicas_.find(loc.id); it != replicas_.end()) {
    for (const Replica& r : it->second) {
      if (r.zone == dest) co_return false;  // copy already there
    }
  }
  std::uint32_t src_zone = 0;
  blob::DataProvider* src = find_source(loc, &src_zone);
  if (src == nullptr) co_return false;
  const std::vector<blob::DataProvider*> targets =
      store(dest)->least_loaded_providers();
  if (targets.empty()) co_return false;
  blob::DataProvider* target = targets.front();
  // Background replication runs as the default tenant: it competes at the
  // provider-io gates like any other disk I/O, but no job is charged.
  common::Buffer data = co_await src->fetch(
      target->node(), loc.id, net::kDefaultTenant, wan_shape());
  co_await target->put_local(loc.id, std::move(data), net::kDefaultTenant);
  // Re-lookup after the awaits: the directory may have rehashed, and a
  // racing copy of the same chunk may have landed first.
  std::vector<Replica>& entry = replicas_[loc.id];
  for (const Replica& r : entry) {
    if (r.zone == dest) co_return true;
  }
  entry.push_back({dest, target->node()});
  replicated_bytes_ += loc.size;
  ++replicated_chunks_;
  co_return true;
}

sim::Task<> Fabric::replicate_commit(blob::BlobClient& client,
                                     blob::BlobId blob,
                                     blob::VersionId version,
                                     const common::RangeSet& dirty) {
  if (!enabled() || version == 0) co_return;
  blob::BlobStore* home = store_of_blob(blob);
  const std::uint32_t origin = home->config().zone;
  if (!alive(origin)) co_return;

  // Full-version manifest: the failover metadata, through which a survivor
  // adopts a dead zone's versions (fetches then resolve to whatever copies
  // survive).
  const blob::BlobMeta meta = co_await client.stat(blob);
  if (version > meta.versions.size()) co_return;
  Manifest m;
  m.size = meta.version(version).size;
  m.chunk_size = meta.chunk_size;
  if (m.size > 0) {
    std::vector<blob::BlobClient::ChunkRef> refs =
        co_await client.resolve_chunks(blob, version, 0, m.size);
    m.leaves.reserve(refs.size());
    for (blob::BlobClient::ChunkRef& r : refs) {
      if (r.loc.id != 0) ++popular_[r.loc.id];
      m.leaves.emplace_back(r.index, std::move(r.loc));
    }
  }
  const Manifest& stored =
      manifests_[std::make_pair(blob, version)] = std::move(m);

  // Two working sets over the origin-owned payload leaves:
  //  - `floor_set`: EVERY leaf of the version. The floor pass walks all of
  //    them so the version is restorable from the buddy zone alone —
  //    including content inherited from the base image or earlier commits.
  //    The directory check in replicate_chunk makes this incremental: the
  //    first drain pays for the inherited content once, later drains skip
  //    straight past everything already copied.
  //  - `delta`: the leaves this commit's dirty ranges introduced — what the
  //    hot tier pushes to the remaining zones, and what sizes the manifest
  //    wire frames.
  std::uint64_t dirty_leaves = 0;
  std::vector<const blob::ChunkLocation*> floor_set;
  std::vector<const blob::ChunkLocation*> delta;
  std::unordered_set<blob::ChunkId> seen;
  for (const auto& [index, loc] : stored.leaves) {
    const std::uint64_t off = index * stored.chunk_size;
    const bool is_dirty = dirty.intersects(off, off + 1);
    if (is_dirty) ++dirty_leaves;
    if (loc.hole() || loc.zone != origin) continue;
    if (!seen.insert(loc.id).second) continue;
    floor_set.push_back(&loc);
    if (is_dirty) delta.push_back(&loc);
  }

  // Ship the manifest delta to every sibling (small control-plane frames
  // over the WAN class).
  const std::uint64_t manifest_wire =
      std::max<std::uint64_t>(dirty_leaves, 1) * kManifestRecordBytes;
  for (std::uint32_t z = 0; z < zones_.size(); ++z) {
    if (z == origin || !alive(z)) continue;
    co_await net_->transfer(client.node(),
                            store(z)->config().version_manager_node,
                            manifest_wire, wan_shape());
    manifest_bytes_ += manifest_wire;
  }

  const std::uint32_t buddy = buddy_of(origin);
  if (buddy >= zones_.size()) co_return;  // no live sibling

  // Floor: one copy of every leaf in the buddy zone. Sequential on
  // purpose — the replicator is one background WAN stream, not a fan-out.
  for (const blob::ChunkLocation* loc : floor_set) {
    co_await replicate_chunk(*loc, buddy);
  }

  // Hot tier: extra copies to the remaining zones, hottest first, until the
  // per-drain budget runs out.
  std::uint64_t budget = cfg_.hot_budget_bytes;
  if (budget == 0 || zones_.size() <= 2) co_return;
  std::stable_sort(delta.begin(), delta.end(),
                   [this](const blob::ChunkLocation* a,
                          const blob::ChunkLocation* b) {
                     return popularity(a->id) > popularity(b->id);
                   });
  for (const blob::ChunkLocation* loc : delta) {
    bool exhausted = false;
    for (std::uint32_t z = 0; z < zones_.size(); ++z) {
      if (z == origin || z == buddy || !alive(z)) continue;
      if (budget < loc->size) {
        exhausted = true;
        break;
      }
      if (co_await replicate_chunk(*loc, z)) budget -= loc->size;
    }
    if (exhausted) break;
  }
}

namespace {

/// One fetch attempt over a fixed location: local-zone copies, then
/// sibling-zone replicas over the WAN class, then the origin zone.
struct Candidate {
  blob::DataProvider* provider = nullptr;
  std::uint32_t zone = 0;
};

}  // namespace

sim::Task<std::optional<Fabric::FetchResult>> Fabric::try_fetch(
    net::TenantId tenant, blob::ChunkLocation loc, net::NodeId dst) {
  const std::uint32_t my = zone_of_node(dst);
  std::vector<Candidate> order;
  const auto add_origin = [&] {
    if (!alive(loc.zone) || loc.zone >= zones_.size()) return;
    blob::BlobStore* st = store(loc.zone);
    if (loc.replicas.empty()) return;
    const std::size_t start = loc.id % loc.replicas.size();
    for (std::size_t k = 0; k < loc.replicas.size(); ++k) {
      const net::NodeId n = loc.replicas[(start + k) % loc.replicas.size()];
      blob::DataProvider* p = st->provider_at(n);
      if (p != nullptr && p->has(loc.id)) order.push_back({p, loc.zone});
    }
  };
  const auto add_directory = [&](bool local) {
    const auto it = replicas_.find(loc.id);
    if (it == replicas_.end()) return;
    for (const Replica& r : it->second) {
      if ((r.zone == my) != local || !alive(r.zone)) continue;
      blob::DataProvider* p = store(r.zone)->provider_at(r.node);
      if (p != nullptr && p->has(loc.id)) order.push_back({p, r.zone});
    }
  };
  if (loc.zone == my) add_origin();
  add_directory(/*local=*/true);
  add_directory(/*local=*/false);
  if (loc.zone != my) add_origin();

  for (const Candidate& c : order) {
    const bool wan = c.zone != my;
    try {
      common::Buffer data = co_await c.provider->fetch(
          dst, loc.id, tenant, wan ? wan_shape() : net::Fabric::Shape{});
      if (wan) wan_fetch_bytes_ += loc.size;
      co_return FetchResult{
          blob::BlobClient::decode_stored(loc, std::move(data)), wan};
    } catch (const blob::BlobError&) {
      // The provider died between candidate selection and the fetch; keep
      // walking outward.
    }
  }
  co_return std::nullopt;
}

sim::Task<Fabric::FetchResult> Fabric::fetch_decoded(
    const blob::ChunkLocation& loc, net::NodeId dst, net::TenantId tenant) {
  if (loc.hole()) {
    co_return FetchResult{common::Buffer::zeros(loc.logical()), false};
  }
  // An in-zone chunk of a live zone stays inside its own store: the listed
  // replicas, then the provider manager's locate() for chunks a repair
  // re-homed. A failure there is final — no WAN detour.
  if (alive(loc.zone) && zone_of_node(dst) == loc.zone) {
    common::Buffer stored = co_await blob::BlobClient::fetch_stored(
        *store(loc.zone), loc, dst, tenant);
    co_return FetchResult{
        blob::BlobClient::decode_stored(loc, std::move(stored)), false};
  }
  std::optional<FetchResult> got = co_await try_fetch(tenant, loc, dst);
  if (got.has_value()) co_return std::move(*got);
  // Content-addressed last resort: the same bytes may live under another
  // ChunkId in a live zone (a sibling zone's rank committed identical
  // content). Proximity-ordered lookup, one hop — the alternate location
  // walks the same local -> replica -> origin ladder.
  if (index_ != nullptr && loc.digest != 0) {
    const blob::ChunkLocation* alt =
        index_->lookup(loc.digest, loc.logical(), zone_of_node(dst));
    if (alt != nullptr && alt->id != loc.id) {
      got = co_await try_fetch(tenant, *alt, dst);
      if (got.has_value()) co_return std::move(*got);
    }
  }
  throw blob::BlobError("federation: chunk " + std::to_string(loc.id) +
                        " (zone " + std::to_string(loc.zone) +
                        ") unreachable in every live zone");
}

sim::Task<std::pair<blob::BlobId, blob::VersionId>> Fabric::resolve_restart(
    blob::BlobId image, blob::VersionId version, net::NodeId node,
    net::TenantId tenant) {
  const std::uint32_t home = zone_of_blob(image);
  if (!enabled() || image == 0 || version == 0 || alive(home)) {
    co_return std::make_pair(image, version);
  }
  const auto key = std::make_pair(image, version);
  if (const auto it = adopted_.find(key); it != adopted_.end()) {
    co_return it->second;
  }
  const auto mit = manifests_.find(key);
  if (mit == manifests_.end() || mit->second.leaves.empty()) {
    throw blob::BlobError(
        "federation: zone " + std::to_string(home) +
        " is down and no manifest was replicated for blob " +
        std::to_string(image) + " v" + std::to_string(version) +
        " (the version never drained through the flush agent)");
  }
  const Manifest& m = mit->second;
  std::uint32_t sz = zone_of_node(node);
  if (!alive(sz)) sz = first_live_zone();
  blob::BlobClient client(*store(sz), node);
  client.set_tenant(tenant);
  const blob::BlobId adopted_blob = co_await client.create(m.chunk_size);
  const blob::VersionId adopted_version =
      co_await client.adopt_leaves(adopted_blob, m.size, m.leaves);
  // A concurrent resolve of the same snapshot may have published first;
  // latest check wins so every caller shares one adopted image.
  if (const auto again = adopted_.find(key); again != adopted_.end()) {
    co_return again->second;
  }
  adopted_[key] = std::make_pair(adopted_blob, adopted_version);
  co_return adopted_[key];
}

sim::Task<> Fabric::replicate_catalog(const std::string& name,
                                      std::uint64_t record_id,
                                      common::Buffer frame, net::NodeId src) {
  if (enabled()) {
    const std::uint32_t home = zone_of_node(src);
    for (std::uint32_t z = 0; z < zones_.size(); ++z) {
      if (z == home || !alive(z)) continue;
      co_await net_->transfer(src, store(z)->config().version_manager_node,
                              frame.size(), wan_shape());
      catalog_bytes_ += frame.size();
    }
  }
  catalog_[name][record_id] = std::move(frame);
}

}  // namespace blobcr::federation
