#include "redundancy/manager.h"

#include <algorithm>
#include <utility>

namespace blobcr::redundancy {

void Manager::attach(net::NodeId node, core::DecodedChunkCache* cache) {
  if (cache == nullptr) return;
  if (caches_.find(node) == caches_.end()) nodes_.push_back(node);
  caches_[node] = cache;
}

void Manager::drop_node(net::NodeId node) {
  std::vector<std::uint64_t> doomed;
  for (std::uint64_t gid : open_) {
    if (group_has_node(groups_.at(gid), node)) doomed.push_back(gid);
  }
  // A sealed group whose parity *holder* died lost its parity block with
  // the node's cache: nothing is rebuildable through it anymore, so it must
  // stop counting as durable. Sealed groups where the node is only a member
  // stay — rebuilding those is what the tier is for.
  for (const auto& [gid, g] : groups_) {
    if (g.sealed && g.holder == node) doomed.push_back(gid);
  }
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (std::uint64_t gid : doomed) drop_group(gid);
  // The dead node leaves the tier — new groups must not pick it as a member
  // or holder — until a replacement instance re-attaches its (cold) cache.
  caches_.erase(node);
  std::erase(nodes_, node);
  holder_rr_ = nodes_.empty() ? 0 : holder_rr_ % nodes_.size();
}

void Manager::drop_all() {
  stats_.groups_dropped += groups_.size();
  stats_.parity_blocks = 0;
  stats_.parity_bytes = 0;
  groups_.clear();
  open_.clear();
  member_gid_.clear();
  id_gid_.clear();
}

core::DecodedChunkCache* Manager::cache_for(net::NodeId node) const {
  const auto it = caches_.find(node);
  return it == caches_.end() ? nullptr : it->second;
}

bool Manager::group_has_node(const Group& g, net::NodeId node) const {
  if (g.holder == node) return true;
  for (const Member& m : g.members) {
    if (m.node == node) return true;
  }
  return false;
}

Manager::Group* Manager::pick_group(net::NodeId node) {
  for (std::uint64_t gid : open_) {
    Group& g = groups_.at(gid);
    if (g.members.size() < g.target && !group_has_node(g, node)) return &g;
  }
  // Open a new group: the parity holder round-robin over the other attached
  // nodes, then as many distinct member nodes as remain (capped at the
  // configured width).
  if (nodes_.size() < 2) return nullptr;
  Group g;
  g.gid = next_gid_++;
  do {
    g.holder = nodes_[holder_rr_++ % nodes_.size()];
  } while (g.holder == node);
  g.target = std::min(cfg_.group_size < 1 ? 1 : cfg_.group_size,
                      nodes_.size() - 1);
  const auto [it, ok] = groups_.emplace(g.gid, std::move(g));
  (void)ok;
  open_.push_back(it->first);
  return &it->second;
}

sim::Task<> Manager::encode_commit(net::NodeId node,
                                   std::vector<ChunkPayload> chunks) {
  if (!cfg_.enabled) co_return;
  for (ChunkPayload& cp : chunks) {
    if (cp.data.empty()) continue;
    // The committing node's resident copy is a tier asset regardless of
    // group membership: rebuilds of other members read it later.
    if (core::DecodedChunkCache* own = cache_for(node))
      own->put(cp.key, cp.data);
    if (member_gid_.find(cp.key) != member_gid_.end()) continue;
    Group* g = pick_group(node);
    if (g == nullptr) continue;
    const std::uint64_t gid = g->gid;
    // Ship the payload to the parity holder BEFORE touching group state:
    // a fail-stop that unwinds this frame mid-transfer must leave no
    // half-registered member.
    co_await fabric_->transfer(node, g->holder, cp.data.size(), shape_);
    stats_.encode_bytes += cp.data.size();
    // The group may have sealed, dropped, or gained a same-node member
    // while this coroutine was suspended — re-validate, re-pick if needed.
    const auto git = groups_.find(gid);
    if (git == groups_.end() || git->second.sealed ||
        git->second.members.size() >= git->second.target ||
        group_has_node(git->second, node)) {
      g = pick_group(node);
    } else {
      g = &git->second;
    }
    if (g == nullptr) continue;
    if (member_gid_.find(cp.key) != member_gid_.end()) continue;
    Member member{cp.key, cp.id, node,
                  static_cast<std::uint32_t>(cp.data.size()), {}};
    if (!cp.data.fully_phantom()) member.truth = cp.data;
    g->members.push_back(std::move(member));
    member_gid_[cp.key] = g->gid;
    if (cp.id != 0) id_gid_[cp.id] = g->gid;
    g->accum = xor_combine(g->accum, cp.data);
    ++stats_.members_encoded;
    if (g->members.size() >= g->target) seal(*g);
  }
}

void Manager::seal(Group& g) {
  if (g.sealed || g.members.empty()) return;
  g.sealed = true;
  std::erase(open_, g.gid);
  std::uint64_t max_size = 0;
  for (const Member& m : g.members)
    max_size = std::max<std::uint64_t>(max_size, m.size);
  g.parity_block_size = max_size;
  // The resident copy of the running XOR now lives in the holder cache.
  common::Buffer block = std::exchange(g.accum, common::Buffer());
  if (block.size() < max_size) block.resize(max_size);
  ++stats_.parity_blocks;
  stats_.parity_bytes += block.size();
  if (core::DecodedChunkCache* c = cache_for(g.holder))
    c->put(parity_key(g.gid), std::move(block));
  ++stats_.groups_sealed;
}

void Manager::seal_open_groups() {
  const std::vector<std::uint64_t> snapshot = open_;
  for (std::uint64_t gid : snapshot) {
    const auto it = groups_.find(gid);
    if (it == groups_.end()) continue;
    if (it->second.members.empty()) {
      drop_group(gid);
    } else {
      seal(it->second);
    }
  }
}

bool Manager::protects(const core::ChunkKey& key) const {
  const auto it = member_gid_.find(key);
  if (it == member_gid_.end()) return false;
  const auto git = groups_.find(it->second);
  return git != groups_.end() && git->second.sealed;
}

sim::Task<std::optional<common::Buffer>> Manager::rebuild(core::ChunkKey key,
                                                          net::NodeId dst) {
  const auto it = member_gid_.find(key);
  if (it == member_gid_.end()) co_return std::nullopt;
  const auto git = groups_.find(it->second);
  if (git == groups_.end() || !git->second.sealed) co_return std::nullopt;
  const Group& g = git->second;

  const Member* target = nullptr;
  for (const Member& m : g.members) {
    if (m.key == key) target = &m;
  }
  if (target == nullptr) co_return std::nullopt;

  // Snapshot every needed payload, and reconstruct, BEFORE the first
  // suspension point — caches mutate freely while transfers run, and the
  // group itself may be dropped.
  struct Part {
    net::NodeId node;
    common::Buffer data;
  };
  std::vector<Part> parts;
  bool others_resident = true;
  for (const Member& m : g.members) {
    if (m.key == key) continue;
    const common::Buffer* hit = nullptr;
    if (core::DecodedChunkCache* c = cache_for(m.node)) hit = c->get(m.key);
    if (hit != nullptr) {
      parts.push_back(Part{m.node, *hit});
    } else {
      others_resident = false;
    }
  }
  const common::Buffer* block = nullptr;
  if (core::DecodedChunkCache* c = cache_for(g.holder))
    block = c->get(parity_key(g.gid));

  // XOR recovers exactly one lost member, from every other member plus the
  // block.
  if (!others_resident || block == nullptr) {
    ++stats_.rebuild_failures;
    co_return std::nullopt;
  }
  const net::NodeId holder = g.holder;
  const std::uint64_t block_size = block->size();
  common::Buffer out = *block;
  for (const Part& p : parts) out = xor_combine(out, p.data);
  out.resize(target->size);
  // xor_combine degrades to phantom wherever ANY co-member byte is
  // phantom — a modeling artifact (the real parity block holds exact
  // bits). Restore the member's retained ground truth in that case.
  if (!out.fully_real() && !target->truth.empty()) {
    out = target->truth;
    out.resize(target->size);
  }

  for (const Part& p : parts)
    co_await fabric_->transfer(p.node, dst, p.data.size(), shape_);
  co_await fabric_->transfer(holder, dst, block_size, shape_);
  ++stats_.rebuilds;
  stats_.rebuild_bytes += out.size();
  co_return out;
}

sim::Task<std::optional<common::Buffer>> Manager::fetch_resident(
    core::ChunkKey key, net::NodeId dst) {
  if (!cfg_.enabled) co_return std::nullopt;
  for (net::NodeId node : nodes_) {
    if (node == dst) continue;
    core::DecodedChunkCache* c = cache_for(node);
    if (c == nullptr) continue;
    const common::Buffer* hit = c->get(key);
    if (hit == nullptr) continue;
    // Snapshot before suspending — the cache mutates while transfers run.
    common::Buffer data = *hit;
    co_await fabric_->transfer(node, dst, data.size(), shape_);
    ++stats_.resident_serves;
    stats_.resident_bytes += data.size();
    co_return data;
  }
  co_return std::nullopt;
}

void Manager::drop_group(std::uint64_t gid) {
  const auto it = groups_.find(gid);
  if (it == groups_.end()) return;
  Group& g = it->second;
  if (g.sealed) {
    if (core::DecodedChunkCache* c = cache_for(g.holder))
      c->erase(parity_key(gid));
    // Account the sealed block, resident or not: a block that died with its
    // holder (or was evicted) must not keep counting as durable parity bytes
    // forever.
    stats_.parity_bytes -=
        std::min<std::uint64_t>(stats_.parity_bytes, g.parity_block_size);
    if (stats_.parity_blocks > 0) --stats_.parity_blocks;
  }
  for (const Member& m : g.members) {
    member_gid_.erase(m.key);
    if (m.id != 0) id_gid_.erase(m.id);
  }
  std::erase(open_, gid);
  groups_.erase(it);
  ++stats_.groups_dropped;
}

void Manager::forget_chunks(const std::vector<blob::ChunkId>& ids) {
  std::vector<std::uint64_t> doomed;
  for (blob::ChunkId id : ids) {
    const auto it = id_gid_.find(id);
    if (it != id_gid_.end()) doomed.push_back(it->second);
  }
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  for (std::uint64_t gid : doomed) drop_group(gid);
}

std::size_t Manager::resident_parity_blocks() const {
  std::size_t n = 0;
  for (const auto& [gid, g] : groups_) {
    if (!g.sealed) continue;
    if (core::DecodedChunkCache* c = cache_for(g.holder)) {
      if (c->get(parity_key(gid)) != nullptr) ++n;
    }
  }
  return n;
}

}  // namespace blobcr::redundancy
