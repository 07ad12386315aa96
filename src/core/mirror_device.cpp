#include "core/mirror_device.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>
#include <string_view>

#include "blob/spool.h"
#include "federation/federation.h"
#include "flush/flush_agent.h"
#include "redundancy/manager.h"
#include "sim/when_all.h"

namespace blobcr::core {

namespace {
/// Delay before a peer acts on a prefetch hint.
constexpr sim::Duration kHintLatency = 300 * sim::kMicrosecond;

/// A failed fetch or resolve, naming its cause (a lost replica, a
/// garbage-collected version...). A cause that already is one — a chunk's
/// fetch failing inside a batch — passes through unchanged.
blob::BlobError fetch_failure(const std::exception& cause) {
  constexpr std::string_view kFailed = "mirror fetch failed";
  const std::string what = cause.what();
  if (what.starts_with(kFailed)) return blob::BlobError(what);
  return blob::BlobError(std::string(kFailed) + ": " + what);
}
}  // namespace

MirrorDevice::MirrorDevice(federation::Fabric& repo, net::NodeId host,
                           storage::Disk& local_disk,
                           std::uint64_t disk_stream,
                           blob::BlobId backing_blob,
                           blob::VersionId backing_version, const Config& cfg,
                           DecodedChunkCache& node_cache, PrefetchBus* bus,
                           reduce::Reducer* reducer)
    : repo_(&repo),
      store_(repo.store_of_blob(backing_blob)),
      host_(host),
      disk_(&local_disk),
      stream_(disk_stream),
      backing_blob_(backing_blob),
      backing_version_(backing_version),
      cfg_(cfg),
      bus_(bus),
      reducer_(reducer),
      client_(*store_, host),
      fetch_done_(store_->simulation()),
      node_cache_(&node_cache) {
  assert(cfg_.capacity > 0);
  client_.set_tenant(cfg_.tenant);
  if (bus_ != nullptr) bus_->attach(this);
  if (cfg_.redundancy != nullptr)
    cfg_.redundancy->attach(host_, node_cache_);
  if (cfg_.flush.enabled) {
    flush_agent_ = std::make_unique<flush::FlushAgent>(
        *store_, repo, client_, local_disk, disk_stream, reducer_,
        cfg_.redundancy);
  }
}

MirrorDevice::~MirrorDevice() {
  prefetch_queue_.clear();
  for (const sim::ProcessPtr& w : prefetch_workers_) {
    if (w) w->kill();
  }
  if (bus_ != nullptr) bus_->detach(this);
}

std::uint64_t MirrorDevice::chunk_size() const {
  return store_->config().default_chunk_size;
}

sim::Task<> MirrorDevice::wait_drained() {
  if (flush_agent_ != nullptr) co_await flush_agent_->wait_drained();
}

namespace {

/// The deployment-wide repository-fetch claim on one content key. Released
/// once the fetched chunk is published — and by the destructor when the
/// fetching coroutine frame is destroyed mid-flight (fail-stop kill): a
/// claim that outlives its fetch would wedge every other instance waiting
/// to materialize the same content. Without a bus every claim succeeds.
struct RepoClaim {
  PrefetchBus* bus;
  ChunkKey key;
  bool held = false;
  bool acquire() {
    if (bus == nullptr) return true;
    held = bus->claim_repo_fetch(key);
    return held;
  }
  void release() {
    if (held) bus->release_repo_fetch(key);
    held = false;
  }
  ~RepoClaim() { release(); }
};

}  // namespace

/// Drops a device's inflight claim and pulses waiters — on normal
/// completion, on error, and on coroutine-frame destruction (a killed
/// snapshot/restore process), so no claim ever outlives its fetch.
struct MirrorDevice::InflightGuard {
  MirrorDevice* m;
  std::uint64_t begin;
  std::uint64_t end;
  ~InflightGuard() {
    m->inflight_.erase(begin, end);
    m->fetch_done_.set();
    m->fetch_done_.reset();
  }
};

sim::Task<> MirrorDevice::materialize_chunk(std::uint64_t clo,
                                            std::uint64_t chi,
                                            const blob::ChunkLocation* loc,
                                            bool announce) {
  InflightGuard inflight{this, clo, chi};
  const std::uint64_t len = chi - clo;
  common::Buffer data;
  // A leaf-less index or a Zero-encoded leaf is a hole: it materializes
  // locally with no repository or peer transfer and no disk payload (the
  // sparse local cache reads holes as zeros).
  const bool hole = loc == nullptr || loc->hole();
  if (hole) {
    ledger_.zero += len;
  } else {
    const ChunkKey key = ChunkKey::of(*loc);
    if (announce && bus_ != nullptr) bus_->announce(this, key, clo, len);
    RepoClaim claim{bus_, key};
    bool cache_hit = false;
    for (;;) {
      // 1. Decoded once per node: any rank on this node already paid.
      if (const common::Buffer* hit = node_cache_->get(key)) {
        data = *hit;
        ledger_.cache += data.size();
        cache_hit = true;
        break;
      }
      // 2. Peer copy: intra-deployment transfer instead of the repo.
      if (bus_ != nullptr) {
        if (auto peer = co_await bus_->copy_from_peer(key, host_,
                                                      store_->fabric())) {
          ledger_.peer += peer->data.size();
          data = std::move(peer->data);
          break;
        }
      }
      // 3. Redundancy tier (SCR-style, cloud-scoped so it survives a
      //    rollback onto a fresh deployment): first a direct copy out of a
      //    registered node cache the (deployment-scoped) bus does not know
      //    about, then a parity-group rebuild — the lost member recomputed
      //    as the XOR of the surviving members' cached payloads and the
      //    parity block. Fabric traffic only; the repository is not touched.
      if (cfg_.redundancy != nullptr) {
        if (auto resident = co_await cfg_.redundancy->fetch_resident(key,
                                                                     host_)) {
          ledger_.peer += resident->size();
          data = std::move(*resident);
          break;
        }
        if (auto rebuilt = co_await cfg_.redundancy->rebuild(key, host_)) {
          ledger_.parity += rebuilt->size();
          data = std::move(*rebuilt);
          break;
        }
      }
      // 4. Repository fetch through the fabric, single-flight per content
      //    key across the deployment: the losers wait and take the peer
      //    copy instead.
      if (claim.acquire()) {
        federation::Fabric::FetchResult fetched;
        try {
          fetched = co_await repo_->fetch_decoded(*loc, host_, cfg_.tenant);
        } catch (const std::exception& e) {
          throw fetch_failure(e);
        }
        ledger_.repo += loc->size;
        ledger_.repo_logical += fetched.data.size();
        if (fetched.wan) ledger_.wan += fetched.data.size();
        data = std::move(fetched.data);
        break;
      }
      co_await bus_->wait_repo_fetch();
    }
    // Pad the version tail with zeros (a cache hit was padded by whoever
    // produced it, but devices can differ in capacity clamp).
    if (data.size() < len) data.resize(len);
    // Every transferred chunk enters this node's cache and holder registry.
    // The claim releases only after publishing, so woken waiters find a
    // holder.
    if (!cache_hit) {
      node_cache_->put(key, data);
      if (bus_ != nullptr) bus_->publish(key, host_, node_cache_);
      claim.release();
    }
  }
  // Only fill bytes that are still missing — a concurrent guest write
  // must never be clobbered by stale backing content.
  for (const common::Range& missing : available_.gaps(clo, chi)) {
    if (!hole) {
      cache_.write(missing.begin,
                   data.slice(missing.begin - clo, missing.length()));
    }
    available_.insert(missing.begin, missing.end);
  }
  if (!hole) co_await disk_->write(stream_, clo, chi - clo);
}

sim::Task<> MirrorDevice::ensure_available(std::uint64_t begin,
                                           std::uint64_t end, bool announce) {
  end = std::min(end, cfg_.capacity);
  if (begin >= end) co_return;
  const std::uint64_t cs = chunk_size();
  while (!available_.contains(begin, end)) {
    // Claim the missing chunks of the chunk-aligned covering window that
    // nobody else is materializing yet.
    const std::uint64_t lo = begin / cs * cs;
    const std::uint64_t hi = std::min((end + cs - 1) / cs * cs,
                                      cfg_.capacity);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> claimed;
    for (const common::Range& gap : available_.gaps(lo, hi)) {
      const std::uint64_t first = gap.begin / cs;
      const std::uint64_t last = (gap.end + cs - 1) / cs;
      for (std::uint64_t idx = first; idx < last; ++idx) {
        const std::uint64_t clo = idx * cs;
        const std::uint64_t chi = std::min(clo + cs, cfg_.capacity);
        if (available_.contains(clo, chi)) continue;
        if (inflight_.gaps(clo, chi).empty()) continue;  // someone on it
        inflight_.insert(clo, chi);
        claimed.emplace_back(clo, chi);
      }
    }
    if (claimed.empty()) {
      // Everything missing is already in flight; wait for progress.
      co_await fetch_done_.wait();
      continue;
    }
    // Batch guard: a kill during resolve (or before a queued materialize
    // job ever ran) must not leave claims behind. Each finished chunk's own
    // guard already erased its range, so the second erase is a no-op.
    struct BatchGuard {
      MirrorDevice* m;
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>* claimed;
      ~BatchGuard() {
        for (const auto& [clo, chi] : *claimed) m->inflight_.erase(clo, chi);
        m->fetch_done_.set();
        m->fetch_done_.reset();
      }
    } batch_guard{this, &claimed};
    // Resolve the claimed window to chunk identity tuples, then
    // materialize each claimed chunk (window-limited like a client read).
    std::vector<blob::BlobClient::ChunkRef> refs;
    try {
      refs = co_await client_.resolve_chunks(
          backing_blob_, backing_version_, claimed.front().first,
          claimed.back().second - claimed.front().first);
    } catch (const std::exception& e) {
      throw fetch_failure(e);
    }
    std::unordered_map<std::uint64_t, const blob::ChunkLocation*> by_index;
    by_index.reserve(refs.size());
    for (const auto& r : refs) by_index[r.index] = &r.loc;
    std::vector<sim::Task<>> jobs;
    jobs.reserve(claimed.size());
    for (const auto& [clo, chi] : claimed) {
      const auto it = by_index.find(clo / cs);
      jobs.push_back(materialize_chunk(
          clo, chi, it == by_index.end() ? nullptr : it->second, announce));
    }
    try {
      co_await sim::run_window(store_->simulation(),
                               blob::BlobStore::kReadWindow, std::move(jobs));
    } catch (const std::exception& e) {
      throw fetch_failure(e);
    }
  }
}

sim::Task<common::Buffer> MirrorDevice::read(std::uint64_t offset,
                                             std::uint64_t len) {
  if (offset + len > cfg_.capacity)
    len = offset < cfg_.capacity ? cfg_.capacity - offset : 0;
  if (len == 0) co_return common::Buffer();
  // Charge local-disk time only for content that was already cached (fresh
  // fetches are served from memory as they land).
  std::uint64_t pre_cached = 0;
  for (const common::Range& r : available_.intersection(offset, offset + len))
    pre_cached += r.length();
  co_await ensure_available(offset, offset + len, /*announce=*/true);
  if (pre_cached > 0) co_await disk_->read(stream_, offset, pre_cached);
  co_return cache_.read(offset, len);
}

sim::Task<> MirrorDevice::write(std::uint64_t offset, common::Buffer data) {
  const std::uint64_t len = data.size();
  if (len == 0) co_return;
  if (offset + len > cfg_.capacity)
    throw std::runtime_error("mirror write beyond capacity");
  cache_.write(offset, std::move(data));
  available_.insert(offset, offset + len);
  dirty_.insert(offset, offset + len);
  co_await disk_->write(stream_, offset, len);
}

sim::Task<blob::BlobId> MirrorDevice::ioctl_clone() {
  if (ckpt_blob_ == 0) {
    ckpt_blob_ = co_await client_.clone(backing_blob_, backing_version_);
  }
  co_return ckpt_blob_;
}

sim::Task<blob::VersionId> MirrorDevice::ioctl_commit() {
  co_await ioctl_clone();
  // Round dirty ranges out to chunk boundaries (the repository stores whole
  // chunks; the remainder of a partially-dirty chunk is copied up from the
  // backing snapshot if not locally present).
  const std::uint64_t cs = chunk_size();
  common::RangeSet rounded;
  for (const common::Range& d : dirty_.to_vector()) {
    const std::uint64_t lo = d.begin / cs * cs;
    const std::uint64_t hi = std::min((d.end + cs - 1) / cs * cs,
                                      cfg_.capacity);
    rounded.insert(lo, hi);
  }
  if (rounded.empty()) {
    // Unchanged disk: the previous snapshot already captures this state.
    last_commit_payload_ = 0;
    co_return last_version_;
  }

  // Copy-up whatever part of the rounded ranges is not locally present.
  std::uint64_t payload = 0;
  for (const common::Range& r : rounded.to_vector()) {
    co_await ensure_available(r.begin, r.end, /*announce=*/false);
    payload += r.length();
  }

  if (flush_agent_ != nullptr) {
    // Asynchronous pipeline: freeze the dirty content — a COW snapshot of
    // the local difference log, so staging costs no simulated I/O — and
    // hand it to the drain agent. The VM resumes as soon as submit()
    // returns the provisional version; the drain charges the local-disk
    // reads and repository transfers in the background. read_extents keeps
    // the real/phantom pieces exact, matching the synchronous reader's
    // per-chunk fidelity.
    common::SparseFile staged;
    for (const common::Range& r : rounded.to_vector()) {
      for (auto& [off, piece] : cache_.read_extents(r.begin, r.length())) {
        staged.write(off, std::move(piece));
      }
    }
    dirty_.clear();
    last_commit_payload_ = payload;
    const blob::VersionId v = co_await flush_agent_->submit(
        ckpt_blob_, std::move(staged), std::move(rounded));
    last_version_ = v;
    co_return v;
  }

  // Stream the commit: chunks are read from the local cache disk inside the
  // store pipeline, overlapping local I/O with provider transfers (spooled
  // readahead policy in blob/spool.h).
  const blob::VersionId v = co_await blob::commit_spooled(
      client_, ckpt_blob_, rounded, *disk_, stream_,
      [this](std::uint64_t offset, std::uint64_t length) {
        return cache_.read(offset, length);
      },
      {.reducer = reducer_});
  dirty_.clear();
  last_commit_payload_ = payload;
  last_version_ = v;
  co_return v;
}

void MirrorDevice::hint(std::uint64_t offset, std::uint64_t len) {
  const std::uint64_t end = std::min(offset + len, cfg_.capacity);
  if (offset >= end) return;
  if (available_.contains(offset, end)) return;
  enqueue_prefetch(offset, end);
}

void MirrorDevice::enqueue_prefetch(std::uint64_t begin, std::uint64_t end) {
  prefetch_queue_.push_back({begin, end});
  for (sim::ProcessPtr& w : prefetch_workers_) {
    if (!w || w->finished()) {
      w = store_->simulation().spawn("prefetch", prefetch_worker());
      return;
    }
  }
}

sim::Task<> MirrorDevice::prefetch_worker() {
  while (!prefetch_queue_.empty()) {
    const common::Range r = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    {
      // Repository-wide admission, one range at a time, right before the
      // fetch: a mass rollback's prefetch queues at the admission plane's
      // restart-prefetch gate alongside live commits. The permit is RAII —
      // the destructor kills the workers at teardown, and a leaked permit
      // would wedge the next deployment's restart against this store.
      qos::FairGate::Permit admission = co_await store_->admission().admit(
          qos::GateClass::RestartPrefetch, cfg_.tenant,
          static_cast<double>(r.length()));
      (void)admission;
      try {
        co_await ensure_available(r.begin, r.end, /*announce=*/false);
      } catch (...) {
        // Backing unavailable: the demand path will surface it.
      }
    }
    // The next range starts from a scheduled resume in this instant, not
    // inline, so the events this range's completion queued run first.
    if (!prefetch_queue_.empty()) co_await store_->simulation().yield();
  }
}

sim::Task<std::vector<blob::BlobClient::ChunkRef>>
MirrorDevice::resolve_backing_chunks() {
  co_return co_await client_.resolve_chunks(backing_blob_, backing_version_,
                                            0, cfg_.capacity);
}

void MirrorDevice::start_scheduled_prefetch(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges) {
  for (const auto& [begin, end] : ranges) enqueue_prefetch(begin, end);
}

// --- PrefetchBus -------------------------------------------------------------

void PrefetchBus::detach(MirrorDevice* m) { std::erase(*mirrors_, m); }

void PrefetchBus::announce(MirrorDevice* self, const ChunkKey& key,
                           std::uint64_t offset, std::uint64_t len) {
  if (!announced_.insert(key).second) return;  // once per deployment
  ++hints_sent_;
  hinted_bytes_ += len;
  // The timer may outlive the bus or a peer (failure mid-restart destroys
  // instances with hints in flight): a weak reference to the attach list
  // gates both — bus gone drops the hint, a peer gone is no longer listed.
  std::weak_ptr<std::vector<MirrorDevice*>> alive = mirrors_;
  sim_->call_in(kHintLatency, [alive, peers = *mirrors_, self, offset, len] {
    const auto mirrors = alive.lock();
    if (!mirrors) return;
    for (MirrorDevice* m : peers) {
      if (m != self && std::find(mirrors->begin(), mirrors->end(), m) !=
                           mirrors->end()) {
        m->hint(offset, len);
      }
    }
  });
}

void PrefetchBus::publish(const ChunkKey& key, net::NodeId node,
                          DecodedChunkCache* cache) {
  auto& vec = holders_[key];
  for (const Holder& h : vec) {
    if (h.node == node && h.cache == cache) return;
  }
  vec.push_back(Holder{node, cache});
}

void PrefetchBus::drop_node(net::NodeId node) {
  for (auto it = holders_.begin(); it != holders_.end();) {
    auto& vec = it->second;
    std::erase_if(vec, [node](const Holder& h) { return h.node == node; });
    it = vec.empty() ? holders_.erase(it) : std::next(it);
  }
}

sim::Task<std::optional<PrefetchBus::PeerHit>> PrefetchBus::copy_from_peer(
    const ChunkKey& key, net::NodeId dst, net::Fabric& net) {
  std::optional<PeerHit> peer = find_holder(key, dst);
  if (!peer) co_return std::nullopt;
  // RAII: the holder's fan-out slot frees even if this copier is
  // fail-stopped mid-transfer.
  struct CopyGuard {
    PrefetchBus* bus;
    ChunkKey key;
    net::NodeId node;
    ~CopyGuard() { bus->finish_peer_copy(key, node); }
  } copy_guard{this, key, peer->node};
  co_await net.transfer(peer->node, dst, peer->data.size(), peer_shape_);
  co_return std::move(peer);
}

std::optional<PrefetchBus::PeerHit> PrefetchBus::find_holder(
    const ChunkKey& key, net::NodeId self) {
  const auto it = holders_.find(key);
  if (it == holders_.end()) return std::nullopt;
  auto& vec = it->second;
  // `best` is a stable index: it only ever points at an already-visited
  // valid entry, and swap-pop eviction only rewrites positions at or after
  // the scan cursor, never an earlier index.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t best = kNone;
  const common::Buffer* best_buf = nullptr;
  for (std::size_t i = 0; i < vec.size();) {
    if (vec[i].node == self) {
      ++i;
      continue;
    }
    const common::Buffer* buf = vec[i].cache->get(key);
    if (buf == nullptr) {
      // Evicted on the holder side: deregister and keep scanning.
      vec[i] = vec.back();
      vec.pop_back();
      continue;
    }
    if (best == kNone || vec[i].active < vec[best].active) {
      best = i;
      best_buf = buf;  // stable: nothing puts into these caches mid-scan
    }
    ++i;
  }
  if (vec.empty()) {
    holders_.erase(it);
    return std::nullopt;
  }
  if (best == kNone || vec[best].active >= kPeerFanout) {
    return std::nullopt;  // swarm oversubscribed: grow through the repo
  }
  ++vec[best].active;
  ++peer_copies_;
  return PeerHit{vec[best].node, *best_buf};
}

void PrefetchBus::finish_peer_copy(const ChunkKey& key, net::NodeId node) {
  const auto it = holders_.find(key);
  if (it != holders_.end()) {
    for (Holder& h : it->second) {
      if (h.node == node && h.active > 0) {
        --h.active;
        break;
      }
    }
  }
  // A freed fan-out slot is progress for anyone parked on this content.
  repo_waiters_.notify_all();
}

sim::Task<> PrefetchBus::schedule_restart_prefetch(
    std::uint64_t per_instance_budget) {
  if (mirrors_->empty() || per_instance_budget == 0) co_return;
  // Resolve every instance's backing window to chunk tuples, in parallel
  // (this is metadata traffic only; it warms each client's node cache).
  struct InstanceMap {
    MirrorDevice* m = nullptr;
    std::vector<blob::BlobClient::ChunkRef> refs;
  };
  auto maps = std::make_shared<std::vector<InstanceMap>>(mirrors_->size());
  std::vector<sim::Task<>> resolves;
  resolves.reserve(mirrors_->size());
  for (std::size_t i = 0; i < mirrors_->size(); ++i) {
    (*maps)[i].m = (*mirrors_)[i];
    resolves.push_back(
        [](MirrorDevice* m, InstanceMap* out) -> sim::Task<> {
          out->refs = co_await m->resolve_backing_chunks();
        }((*mirrors_)[i], &(*maps)[i]));
  }
  co_await sim::when_all(*sim_, std::move(resolves));

  // Popularity: how many instances share each content identity (holes
  // have no content to fetch and drop out here).
  std::unordered_map<ChunkKey, std::uint32_t, ChunkKeyHash> popularity;
  for (InstanceMap& im : *maps) {
    std::erase_if(im.refs, [](const blob::BlobClient::ChunkRef& r) {
      return r.loc.hole();
    });
    for (const auto& r : im.refs) ++popularity[ChunkKey::of(r.loc)];
  }

  for (std::size_t i = 0; i < maps->size(); ++i) {
    InstanceMap& im = (*maps)[i];
    std::vector<blob::BlobClient::ChunkRef>& refs = im.refs;
    // Most-shared first, stable among equals. Each ref's popularity is
    // looked up once; the sort permutes indexes.
    std::vector<std::uint32_t> pop;
    pop.reserve(refs.size());
    for (const auto& r : refs) {
      pop.push_back(popularity.at(ChunkKey::of(r.loc)));
    }
    std::vector<std::size_t> order(refs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&pop](std::size_t a, std::size_t b) {
                       return pop[a] > pop[b];
                     });
    const std::uint64_t cs = im.m->chunk_size();
    // Rotate each instance's start so concurrent repository fetches spread
    // over distinct popular chunks (the single-flight claim turns the rest
    // into peer copies); globally the most-shared content still lands
    // first.
    const std::size_t rot =
        refs.empty() ? 0 : (i * refs.size()) / maps->size();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    std::uint64_t budget = per_instance_budget;
    for (std::size_t k = 0; k < refs.size(); ++k) {
      const auto& r = refs[order[(k + rot) % refs.size()]];
      const std::uint64_t len = r.loc.logical();
      if (len > budget) break;
      budget -= len;
      const std::uint64_t clo = r.index * cs;
      ranges.emplace_back(clo,
                          std::min(clo + len, im.m->capacity()));
    }
    im.m->start_scheduled_prefetch(std::move(ranges));
  }
}

}  // namespace blobcr::core
