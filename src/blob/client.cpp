#include "blob/client.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <exception>
#include <unordered_map>
#include <unordered_set>

#include "reduce/reducer.h"
#include "reduce/rle.h"
#include "sim/when_all.h"

namespace blobcr::blob {

using reduce::ReducedChunk;

common::Buffer BlobClient::decode_stored(const ChunkLocation& loc,
                                         common::Buffer stored) {
  switch (loc.encoding) {
    case ChunkEncoding::Raw:
    case ChunkEncoding::Zero:
      return stored;
    case ChunkEncoding::Rle: {
      if (!stored.fully_real()) throw BlobError("phantom RLE chunk payload");
      return common::Buffer::real(
          reduce::rle_decode(stored.bytes(), loc.logical()));
    }
    case ChunkEncoding::PhantomRatio:
      // The stored payload is a size-only placeholder at the modeled
      // compressed size; the logical content was phantom to begin with.
      return common::Buffer::phantom(loc.logical());
  }
  return stored;
}

namespace {

/// True iff any write index falls in [lo, hi).
bool overlaps(const std::vector<std::pair<std::uint64_t, ChunkLocation>>& w,
              std::uint64_t lo, std::uint64_t hi) {
  const auto it = std::lower_bound(
      w.begin(), w.end(), lo,
      [](const auto& e, std::uint64_t v) { return e.first < v; });
  return it != w.end() && it->first < hi;
}

const ChunkLocation* find_write(
    const std::vector<std::pair<std::uint64_t, ChunkLocation>>& w,
    std::uint64_t index) {
  const auto it = std::lower_bound(
      w.begin(), w.end(), index,
      [](const auto& e, std::uint64_t v) { return e.first < v; });
  return (it != w.end() && it->first == index) ? &it->second : nullptr;
}

}  // namespace

const char* commit_stage_name(CommitStage s) {
  switch (s) {
    case CommitStage::Staged:
      return "staged";
    case CommitStage::Reducing:
      return "reducing";
    case CommitStage::Putting:
      return "putting";
    case CommitStage::PrePublish:
      return "pre-publish";
    case CommitStage::PostPublish:
      return "post-publish";
    case CommitStage::ParityEncode:
      return "parity-encode";
    case CommitStage::Replicate:
      return "replicate";
  }
  return "?";
}

sim::Task<BlobId> BlobClient::create(std::uint64_t chunk_size) {
  if (chunk_size == 0) chunk_size = store_->config().default_chunk_size;
  const BlobId id =
      co_await store_->version_manager().create(node_, chunk_size, tenant_);
  chunk_size_cache_[id] = chunk_size;
  co_return id;
}

sim::Task<BlobId> BlobClient::clone(BlobId src, VersionId v) {
  const BlobId id =
      co_await store_->version_manager().clone(node_, src, v, tenant_);
  co_return id;
}

sim::Task<BlobMeta> BlobClient::stat(BlobId blob) {
  BlobMeta meta = co_await store_->version_manager().stat(node_, blob, tenant_);
  co_return meta;
}

sim::Task<> BlobClient::bind_name(const std::string& name, BlobId id) {
  co_await store_->version_manager().bind_name(node_, name, id, tenant_);
}

sim::Task<BlobId> BlobClient::lookup_name(const std::string& name) {
  co_return co_await store_->version_manager().lookup_name(node_, name,
                                                           tenant_);
}

sim::Task<BlobClient::VersionEntry> BlobClient::resolve(BlobId blob,
                                                        VersionId& version) {
  if (version != 0) {
    const auto it = version_cache_.find(VersionKey{blob, version});
    if (it != version_cache_.end()) co_return it->second;
  }
  const BlobMeta meta =
      co_await store_->version_manager().stat(node_, blob, tenant_);
  chunk_size_cache_[blob] = meta.chunk_size;
  if (version == 0) version = meta.latest();
  VersionEntry entry;
  entry.chunk_size = meta.chunk_size;
  if (version == 0) {
    // Freshly created blob without versions: empty.
    entry.root = 0;
    entry.size = 0;
    co_return entry;
  }
  const VersionInfo& info = meta.version(version);
  if (info.pending)
    throw BlobError("version not yet published (drain in flight or dead)");
  if (info.root == 0 && info.size != 0)
    throw BlobError("version has been garbage-collected");
  entry.root = info.root;
  entry.size = info.size;
  version_cache_[VersionKey{blob, version}] = entry;
  co_return entry;
}

sim::Task<VersionId> BlobClient::write(BlobId blob, std::uint64_t offset,
                                       common::Buffer data) {
  std::vector<Extent> extents;
  extents.push_back(Extent{offset, std::move(data)});
  co_return co_await write_extents(blob, std::move(extents));
}

sim::Task<VersionId> BlobClient::write_extents(BlobId blob,
                                               std::vector<Extent> extents) {
  // In-memory payloads: the reader just slices them. Both the extents and
  // the reader live in this frame for the duration of the call.
  std::vector<ExtentSpec> specs;
  specs.reserve(extents.size());
  for (const Extent& e : extents) {
    specs.push_back(ExtentSpec{e.offset, e.data.size()});
  }
  const std::vector<Extent>* owned = &extents;
  ExtentReader reader = [owned](std::uint64_t offset,
                                std::uint64_t length)
      -> sim::Task<common::Buffer> {
    for (const Extent& e : *owned) {
      if (offset >= e.offset && offset + length <= e.offset + e.data.size()) {
        co_return e.data.slice(offset - e.offset, length);
      }
    }
    throw BlobError("reader miss in write_extents");
  };
  co_return co_await write_extents_via(blob, std::move(specs), &reader);
}

sim::Task<VersionId> BlobClient::write_extents_via(
    BlobId blob, std::vector<ExtentSpec> extents, ExtentReader* reader,
    CommitOptions opts) {
  reduce::Reducer* reducer = opts.reducer;
  VersionId latest = 0;
  const VersionEntry base = co_await resolve(blob, latest);
  const std::uint64_t chunk_size = base.chunk_size;

  // Split extents into chunk-sized pieces (payloads fetched lazily).
  struct Piece {
    std::uint64_t index;
    std::uint64_t offset;
    std::uint32_t length;
  };
  std::vector<Piece> pieces;
  std::uint64_t new_size = base.size;
  std::uint64_t payload_bytes = 0;
  for (const ExtentSpec& e : extents) {
    if (e.offset % chunk_size != 0)
      throw BlobError("write offset not chunk-aligned");
    payload_bytes += e.length;
    new_size = std::max(new_size, e.offset + e.length);
    for (std::uint64_t off = 0; off < e.length; off += chunk_size) {
      const std::uint64_t piece_len = std::min(chunk_size, e.length - off);
      pieces.push_back(Piece{(e.offset + off) / chunk_size, e.offset + off,
                             static_cast<std::uint32_t>(piece_len)});
    }
  }
  if (pieces.empty()) throw BlobError("empty commit");
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.index < b.index; });
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    if (pieces[i].index == pieces[i - 1].index)
      throw BlobError("overlapping extents in commit");
  }
  if (pieces.back().index >= capacity_chunks())
    throw BlobError("write beyond blob capacity");

  const int replication = store_->config().replication;
  std::vector<ChunkLocation> locs(pieces.size());
  std::uint64_t stored_payload = payload_bytes;

  // Per-tenant capacity ceiling, checked before the gate so a refused
  // commit never consumes shared commit capacity. The pre-reduction payload
  // is the admission-time upper bound of what this commit could make
  // resident (reduction only shrinks it).
  const BlobStore::TenantQuota& quota = store_->tenant_quota(tenant_);
  if (quota.max_resident_bytes != 0) {
    const std::uint64_t resident =
        store_->tenant_usage_snapshot(tenant_).shipped_bytes;
    if (resident + payload_bytes > quota.max_resident_bytes) {
      throw QuotaExceededError("tenant over resident-bytes quota: " +
                               std::to_string(resident) + " + " +
                               std::to_string(payload_bytes) + " > " +
                               std::to_string(quota.max_resident_bytes));
    }
  }

  // Commit admission: one slot per in-flight commit/drain, held from here
  // through publish. The admission plane admits tenants weighted-fair when
  // QoS is on, so a bulk tenant's backlog cannot starve a small tenant's
  // commit; with the gate unbounded (single-tenant default) this is a
  // no-op. The permit releases as this frame unwinds — including on drain
  // kill.
  qos::FairGate::Permit admission = co_await store_->admission().admit(
      qos::GateClass::Commit, tenant_, static_cast<double>(payload_bytes));
  (void)admission;

  // Reduced-path commit state, function-scoped so the guard's destructor
  // runs only after the version published (or on unwind): dedup Ref pins
  // must outlive the metadata co_awaits below — otherwise a GC running
  // during put_nodes/publish sees the Ref'd chunks neither pinned nor
  // reachable and reclaims them under the about-to-publish version. On a
  // failed commit the guard also withdraws the digests this commit pushed
  // into the dedup index: no tree references those chunks, so leaving them
  // indexed would offer dedup targets the GC can never reclaim.
  std::vector<ReducedChunk> plans;
  struct CommitGuard {
    reduce::ChunkDigestIndex* index;
    const std::vector<ReducedChunk>* plans;
    std::vector<ChunkId> indexed{};  // chunks this commit put in the index
    bool published = false;
    ~CommitGuard() {
      if (index == nullptr) return;
      std::vector<ChunkId> ids;
      for (const ReducedChunk& p : *plans) {
        if (p.kind == ReducedChunk::Kind::Ref && p.ref.id != 0) {
          ids.push_back(p.ref.id);
        }
      }
      if (!ids.empty()) index->release_pins(ids);
      // Only the withdrawn chunks' own locations drop; identical content
      // another commit stored stays indexed (fallback entries).
      if (!published && !indexed.empty()) index->forget_chunks(indexed);
    }
  } guard{reducer == nullptr ? nullptr : &reducer->index(), &plans};

  if (opts.probe != nullptr) co_await (*opts.probe)(CommitStage::Reducing);

  if (reducer == nullptr) {
    // Placement: one allocation round-trip for the whole commit.
    std::vector<std::uint32_t> sizes;
    sizes.reserve(pieces.size());
    for (const Piece& p : pieces) sizes.push_back(p.length);
    locs = co_await store_->provider_manager().allocate(
        node_, sizes, replication, store_->chunk_id_counter(), tenant_);
    for (ChunkLocation& loc : locs) loc.zone = store_->config().zone;

    if (opts.probe != nullptr) co_await (*opts.probe)(CommitStage::Putting);

    // Pipelined stores: each window slot pulls a chunk through the reader
    // (e.g. local disk) and ships it to all replicas. The reader outlives
    // the pipeline (owned by our caller's frame).
    std::vector<sim::Task<>> stores;
    stores.reserve(pieces.size());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      stores.push_back(
          [](BlobClient* self, Piece piece, ChunkLocation loc,
             ExtentReader* rd) -> sim::Task<> {
            common::Buffer data =
                co_await (*rd)(piece.offset, piece.length);
            for (const net::NodeId replica : loc.replicas) {
              DataProvider* provider = self->store_->provider_at(replica);
              if (provider == nullptr) throw BlobError("no provider at node");
              co_await provider->store(self->node_, loc.id, data,
                                       self->tenant_);
            }
          }(this, pieces[i], locs[i], reader));
    }
    co_await sim::run_window(store_->simulation(), BlobStore::kWriteWindow,
                             std::move(stores));
  } else {
    // --- Reduced commit path ------------------------------------------
    // Phase 1 (window-limited): pull each chunk through the reader and the
    // reduction pipeline. Surviving payloads stay in memory until phase 3,
    // so the local cache is read exactly once per chunk.
    plans.resize(pieces.size());
    std::vector<sim::Task<>> reduces;
    reduces.reserve(pieces.size());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      reduces.push_back(
          [](const Piece& piece, ExtentReader* rd, reduce::Reducer* red,
             std::uint32_t zone, ReducedChunk* plan) -> sim::Task<> {
            common::Buffer data = co_await (*rd)(piece.offset, piece.length);
            *plan = co_await red->reduce(zone, std::move(data));
          }(pieces[i], reader, reducer, store_->config().zone, &plans[i]));
    }
    co_await sim::run_window(store_->simulation(), BlobStore::kWriteWindow,
                             std::move(reduces));

    // Phase 2: intra-commit dedup (identical chunks of one commit collapse
    // onto their first occurrence), then one placement round-trip covering
    // only the chunks that genuinely store.
    constexpr std::size_t kNoAlias = static_cast<std::size_t>(-1);
    std::unordered_map<std::uint64_t, std::size_t> first_of_digest;
    std::vector<std::size_t> alias(pieces.size(), kNoAlias);
    std::vector<std::size_t> store_idx;
    std::vector<std::uint32_t> sizes;
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (plans[i].kind != ReducedChunk::Kind::Store) continue;
      if (plans[i].index_on_commit) {
        const auto [it, fresh] =
            first_of_digest.try_emplace(plans[i].digest, i);
        // Both payloads are in memory here, so unlike the cross-commit
        // index lookup the alias can be byte-verified: the pipeline is
        // deterministic, so equal raw chunks yield equal (encoding,
        // payload), and a digest collision falls through to a store.
        if (!fresh && pieces[it->second].length == pieces[i].length &&
            plans[it->second].encoding == plans[i].encoding &&
            plans[it->second].payload == plans[i].payload) {
          alias[i] = it->second;
          reducer->account_aliased(pieces[i].length);
          continue;
        }
      }
      store_idx.push_back(i);
      sizes.push_back(static_cast<std::uint32_t>(plans[i].payload.size()));
    }
    std::vector<ChunkLocation> alloc;
    if (!sizes.empty()) {
      alloc = co_await store_->provider_manager().allocate(
          node_, sizes, replication, store_->chunk_id_counter(), tenant_);
    }
    stored_payload = 0;
    for (std::size_t k = 0; k < store_idx.size(); ++k) {
      const std::size_t i = store_idx[k];
      ChunkLocation loc = alloc[k];
      loc.zone = store_->config().zone;
      loc.encoding = plans[i].encoding;
      loc.logical_size = pieces[i].length;
      // Content identity travels into the leaf only when the digest is a
      // real-content digest (dedupable chunks) — phantom digests are
      // length-derived and would alias unrelated content.
      if (plans[i].index_on_commit) loc.digest = plans[i].digest;
      stored_payload += loc.size;
      reducer->account_stored(loc.size);
      locs[i] = std::move(loc);
    }
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      if (alias[i] != kNoAlias) {
        locs[i] = locs[alias[i]];
      } else if (plans[i].kind == ReducedChunk::Kind::Ref) {
        locs[i] = plans[i].ref;
      } else if (plans[i].kind == ReducedChunk::Kind::Zero) {
        ChunkLocation hole;
        hole.encoding = ChunkEncoding::Zero;
        hole.logical_size = pieces[i].length;
        locs[i] = hole;
      }
    }

    if (opts.probe != nullptr) co_await (*opts.probe)(CommitStage::Putting);

    // Phase 3: window-limited stores of the surviving chunks. Each chunk
    // enters the dedup index the moment every replica holds it, so other
    // ranks of the same global checkpoint can already dedup against it.
    std::vector<sim::Task<>> stores;
    stores.reserve(store_idx.size());
    for (const std::size_t i : store_idx) {
      stores.push_back(
          [](BlobClient* self, ReducedChunk* plan, const ChunkLocation& loc,
             CommitGuard* g) -> sim::Task<> {
            for (const net::NodeId replica : loc.replicas) {
              DataProvider* provider = self->store_->provider_at(replica);
              if (provider == nullptr) throw BlobError("no provider at node");
              co_await provider->store(self->node_, loc.id, plan->payload,
                                       self->tenant_);
            }
            if (plan->index_on_commit) {
              g->index->record(plan->digest, loc.logical(), loc);
              g->indexed.push_back(loc.id);
            }
          }(this, &plans[i], locs[i], &guard));
    }
    co_await sim::run_window(store_->simulation(), BlobStore::kWriteWindow,
                             std::move(stores));
  }

  // Warm the metadata cache over the written range, then path-copy.
  std::vector<std::pair<std::uint64_t, ChunkLocation>> writes;
  writes.reserve(pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    writes.emplace_back(pieces[i].index, locs[i]);
  }
  const std::uint64_t lo = writes.front().first;
  const std::uint64_t hi = writes.back().first + 1;
  if (base.root != 0) {
    co_await descend(base.root, capacity_chunks(), lo, hi, nullptr);
  }
  std::vector<std::pair<NodeRef, TreeNode>> new_nodes;
  const NodeRef new_root = build(base.root, 0, capacity_chunks(), writes,
                                 new_nodes);
  const std::uint64_t meta_bytes =
      new_nodes.size() * MetadataCluster::kNodeRecordBytes;
  co_await store_->metadata().put_nodes(node_, std::move(new_nodes));

  const std::uint64_t chunk_bytes =
      stored_payload * static_cast<std::uint64_t>(replication);
  if (opts.probe != nullptr) co_await (*opts.probe)(CommitStage::PrePublish);
  const VersionId v = co_await store_->version_manager().publish(
      node_, blob, new_root, new_size, chunk_bytes, meta_bytes,
      opts.reserved_version, tenant_);
  guard.published = true;
  store_->account_commit(tenant_, payload_bytes, stored_payload);
  version_cache_[VersionKey{blob, v}] =
      VersionEntry{new_root, new_size, chunk_size};
  if (opts.probe != nullptr) co_await (*opts.probe)(CommitStage::PostPublish);
  co_return v;
}

NodeRef BlobClient::build(
    NodeRef old_ref, std::uint64_t lo, std::uint64_t hi,
    const std::vector<std::pair<std::uint64_t, ChunkLocation>>& writes,
    std::vector<std::pair<NodeRef, TreeNode>>& out) {
  if (!overlaps(writes, lo, hi)) return old_ref;  // shared subtree
  if (hi - lo == 1) {
    const ChunkLocation* loc = find_write(writes, lo);
    assert(loc != nullptr);
    const NodeRef ref = store_->node_ref_counter()++;
    TreeNode node = TreeNode::make_leaf(*loc);
    node_cache_[ref] = node;
    out.emplace_back(ref, std::move(node));
    return ref;
  }
  const std::uint64_t mid = lo + (hi - lo) / 2;
  NodeRef old_left = 0;
  NodeRef old_right = 0;
  if (old_ref != 0) {
    const auto it = node_cache_.find(old_ref);
    assert(it != node_cache_.end() && "cache not warmed before build");
    old_left = it->second.left;
    old_right = it->second.right;
  }
  const NodeRef l = build(old_left, lo, mid, writes, out);
  const NodeRef r = build(old_right, mid, hi, writes, out);
  const NodeRef ref = store_->node_ref_counter()++;
  TreeNode node = TreeNode::inner(l, r);
  node_cache_[ref] = node;
  out.emplace_back(ref, std::move(node));
  return ref;
}

sim::Task<> BlobClient::descend(
    NodeRef root, std::uint64_t capacity, std::uint64_t lo_chunk,
    std::uint64_t hi_chunk,
    std::vector<std::pair<std::uint64_t, ChunkLocation>>* leaves) {
  struct Frame {
    NodeRef ref;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<Frame> frontier{{root, 0, capacity}};
  while (!frontier.empty()) {
    // Fetch every uncached node of this level in per-provider batches.
    std::vector<NodeRef> missing;
    for (const Frame& f : frontier) {
      if (f.ref != 0 && node_cache_.find(f.ref) == node_cache_.end())
        missing.push_back(f.ref);
    }
    if (!missing.empty()) {
      co_await store_->metadata().get_nodes(node_, missing, node_cache_);
    }
    std::vector<Frame> next;
    for (const Frame& f : frontier) {
      if (f.ref == 0) continue;  // hole
      const TreeNode& node = node_cache_.at(f.ref);
      if (node.leaf) {
        if (leaves != nullptr) leaves->emplace_back(f.lo, node.chunk);
        continue;
      }
      const std::uint64_t mid = f.lo + (f.hi - f.lo) / 2;
      if (node.left != 0 && lo_chunk < mid && f.lo < hi_chunk) {
        next.push_back(Frame{node.left, f.lo, mid});
      }
      if (node.right != 0 && hi_chunk > mid && f.hi > lo_chunk) {
        next.push_back(Frame{node.right, mid, f.hi});
      }
    }
    frontier = std::move(next);
  }
}

sim::Task<common::Buffer> BlobClient::fetch_stored(BlobStore& store,
                                                   const ChunkLocation& loc,
                                                   net::NodeId dst,
                                                   net::TenantId tenant) {
  const std::size_t n = loc.replicas.size();
  const std::size_t start = static_cast<std::size_t>(loc.id) % n;
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const net::NodeId replica = loc.replicas[(start + attempt) % n];
    DataProvider* provider = store.provider_at(replica);
    if (provider == nullptr || !provider->has(loc.id)) continue;
    co_return co_await provider->fetch(dst, loc.id, tenant);
  }
  // The metadata lists where the replicas were at write time; after a node
  // loss the repair service may have re-homed the chunk. Ask the provider
  // manager where it lives now before declaring it lost.
  const std::vector<net::NodeId> current =
      co_await store.provider_manager().locate(dst, loc.id, tenant);
  for (const net::NodeId replica : current) {
    DataProvider* provider = store.provider_at(replica);
    if (provider == nullptr || !provider->has(loc.id)) continue;
    co_return co_await provider->fetch(dst, loc.id, tenant);
  }
  throw BlobError("all replicas of chunk lost");
}

sim::Task<common::Buffer> BlobClient::read(BlobId blob, VersionId version,
                                           std::uint64_t offset,
                                           std::uint64_t len) {
  const VersionKey key{blob, version};
  const bool cached = version != 0 && version_cache_.contains(key);
  const VersionEntry entry = co_await resolve(blob, version);
  if (offset + len > entry.size && entry.size != 0) {
    // Reads past the logical end are clipped like a sparse file.
    len = offset < entry.size ? entry.size - offset : 0;
  }
  if (len == 0 || entry.root == 0) co_return common::Buffer::zeros(len);
  const std::uint64_t chunk_size = entry.chunk_size;
  const std::uint64_t lo_chunk = offset / chunk_size;
  const std::uint64_t hi_chunk = (offset + len + chunk_size - 1) / chunk_size;

  std::vector<std::pair<std::uint64_t, ChunkLocation>> leaves;
  auto fetched =
      std::make_shared<std::unordered_map<ChunkId, common::Buffer>>();
  std::exception_ptr failure;
  try {
    co_await descend(entry.root, capacity_chunks(), lo_chunk, hi_chunk,
                     &leaves);

    // Fetch each distinct chunk once (dedup can alias many leaves onto one
    // stored chunk — re-fetching per leaf would pay on restore the transfers
    // dedup saved on commit), window-limited, then assemble per leaf.
    std::vector<sim::Task<>> fetches;
    for (const auto& [index, loc] : leaves) {
      // Zero-suppressed leaves are metadata-only holes: no payload to
      // fetch; the assembly below fills uncovered gaps with zeros.
      if (loc.hole()) continue;
      if (!fetched->try_emplace(loc.id).second) continue;  // scheduled
      fetches.push_back(
          [](BlobClient* self, ChunkLocation l,
             std::shared_ptr<std::unordered_map<ChunkId, common::Buffer>> res)
              -> sim::Task<> {
            (*res)[l.id] = co_await fetch_stored(*self->store_, l,
                                                 self->node_, self->tenant_);
          }(this, loc, fetched));
    }
    co_await sim::run_window(store_->simulation(), BlobStore::kReadWindow,
                             std::move(fetches));
  } catch (const BlobError&) {
    if (!cached) throw;
    failure = std::current_exception();
  }
  if (failure) {
    // The cached entry may predate a GC epoch that tombstoned the version,
    // leaving this client walking a reclaimed tree. Resolve it afresh: a
    // tombstone throws the garbage-collected error; otherwise the original
    // error stands.
    version_cache_.erase(key);
    (void)co_await resolve(blob, version);
    std::rethrow_exception(failure);
  }

  // Decode once per distinct chunk, in place (an RLE chunk aliased by many
  // leaves must not be re-decoded per leaf), then assemble piecewise in
  // order (holes read as zeros).
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::unordered_set<ChunkId> decoded;
  common::Buffer out;
  std::uint64_t cursor = offset;
  for (const auto& [index, loc] : leaves) {
    if (loc.hole()) continue;
    common::Buffer& data = fetched->at(loc.id);
    if (decoded.insert(loc.id).second) {
      data = decode_stored(loc, std::move(data));
    }
    const std::uint64_t chunk_begin = index * chunk_size;
    const std::uint64_t copy_begin = std::max(chunk_begin, offset);
    const std::uint64_t copy_end =
        std::min(chunk_begin + data.size(), offset + len);
    if (copy_begin >= copy_end) continue;
    if (copy_begin > cursor) out.append(common::Buffer::zeros(copy_begin - cursor));
    out.append(
        data.slice(copy_begin - chunk_begin, copy_end - copy_begin));
    cursor = copy_end;
  }
  if (cursor < offset + len) {
    out.append(common::Buffer::zeros(offset + len - cursor));
  }
  co_return out;
}

sim::Task<VersionId> BlobClient::adopt_leaves(
    BlobId blob, std::uint64_t logical_size,
    const std::vector<std::pair<std::uint64_t, ChunkLocation>>& leaves) {
  VersionId latest = 0;
  const VersionEntry base = co_await resolve(blob, latest);
  if (base.root != 0)
    throw BlobError("adopt_leaves requires a fresh (empty) blob");
  if (leaves.empty()) throw BlobError("adopt_leaves: empty leaf set");
  std::vector<std::pair<std::uint64_t, ChunkLocation>> writes = leaves;
  std::sort(writes.begin(), writes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (writes.back().first >= capacity_chunks())
    throw BlobError("adopted leaf beyond blob capacity");
  std::vector<std::pair<NodeRef, TreeNode>> new_nodes;
  const NodeRef new_root = build(0, 0, capacity_chunks(), writes, new_nodes);
  const std::uint64_t meta_bytes =
      new_nodes.size() * MetadataCluster::kNodeRecordBytes;
  co_await store_->metadata().put_nodes(node_, std::move(new_nodes));
  const VersionId v = co_await store_->version_manager().publish(
      node_, blob, new_root, logical_size, 0, meta_bytes, 0, tenant_);
  version_cache_[VersionKey{blob, v}] =
      VersionEntry{new_root, logical_size, base.chunk_size};
  co_return v;
}

sim::Task<std::vector<BlobClient::ChunkRef>> BlobClient::resolve_chunks(
    BlobId blob, VersionId version, std::uint64_t offset, std::uint64_t len) {
  const VersionEntry entry = co_await resolve(blob, version);
  std::vector<ChunkRef> refs;
  if (entry.root == 0 || len == 0) co_return refs;
  if (offset + len > entry.size && entry.size != 0) {
    len = offset < entry.size ? entry.size - offset : 0;
    if (len == 0) co_return refs;
  }
  const std::uint64_t chunk_size = entry.chunk_size;
  const std::uint64_t lo_chunk = offset / chunk_size;
  const std::uint64_t hi_chunk = (offset + len + chunk_size - 1) / chunk_size;
  std::vector<std::pair<std::uint64_t, ChunkLocation>> leaves;
  co_await descend(entry.root, capacity_chunks(), lo_chunk, hi_chunk, &leaves);
  std::sort(leaves.begin(), leaves.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  refs.reserve(leaves.size());
  for (auto& [index, loc] : leaves) {
    refs.push_back(ChunkRef{index, std::move(loc)});
  }
  co_return refs;
}

}  // namespace blobcr::blob
