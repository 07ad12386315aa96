// redundancy::Manager — the cloud-scoped parity tier that sits
// *between* the per-node decoded-chunk caches and the repository
// (SCR-style multi-level resilience, ROADMAP "peer redundancy + scavenge").
// Cloud-scoped like the repository itself: the FT runner's rollback builds
// a fresh Deployment on shifted nodes, and the groups encoded by the
// previous incarnation must survive to serve it.
//
// Commit path: once a node's staged generation has published, the flush
// agent hands the manager the committed chunks' content identities +
// decoded payloads (CommitStage::ParityEncode boundary). Each payload is
// folded into an open parity group whose members all live on DISTINCT
// compute nodes — a single node failure therefore costs at most one member
// per group, the single-erasure case XOR reconstructs exactly. The payload
// ships over the fabric's peer traffic class to the group's parity holder
// node; when a group reaches its width the parity block seals into the
// holder node's decoded-chunk cache under a reserved content key (b == 2 —
// disjoint from both digest keys (odd b) and ChunkId keys (b == 0)).
//
// Restart path: MirrorDevice::materialize_chunk consults rebuild() between
// the peer-copy and repository-fetch levels. A lost member is recomputed as
// the XOR of the surviving members' cached payloads and the parity block,
// everything moving node->node over the peer class — the repository is not
// touched. A group that lost two members, or its block, rebuilds nothing.
//
// Scavenge: cr::Session::scavenge() re-seeds a lost repository from this
// tier — survivors' cached copies first, parity rebuild second.
//
// Kill-safety contract (the flush crash harness kills drains at stage
// boundaries, unwinding coroutine frames mid-encode): group state mutates
// only *after* the holder transfers complete, so a fail-stop mid-transfer
// leaves no half-registered member; a registered member whose group never
// filled is closed by seal_open_groups() at the next checkpoint boundary.
// GC reclaim of any member chunk invalidates the whole group and erases its
// parity block from the holder cache (no orphaned parity).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "blob/types.h"
#include "common/buffer.h"
#include "core/chunk_cache.h"
#include "net/fabric.h"
#include "redundancy/parity.h"
#include "sim/sim.h"

namespace blobcr::redundancy {

class Manager final : public blob::GcObserver {
 public:
  /// One committed chunk, as handed over by the flush drain.
  struct ChunkPayload {
    core::ChunkKey key;
    blob::ChunkId id = 0;  // storage identity (GC reclaim unprotects by id)
    common::Buffer data;   // decoded logical payload
  };

  struct Stats {
    std::uint64_t members_encoded = 0;
    std::uint64_t encode_bytes = 0;    // member bytes shipped to holders
    std::uint64_t groups_sealed = 0;
    std::uint64_t groups_dropped = 0;  // GC / failure invalidation
    std::uint64_t parity_blocks = 0;   // sealed blocks currently tracked
    std::uint64_t parity_bytes = 0;
    std::uint64_t rebuilds = 0;
    std::uint64_t rebuild_bytes = 0;   // reconstructed payload bytes
    std::uint64_t rebuild_failures = 0;  // fell through to the repository
    std::uint64_t resident_serves = 0;   // direct copies out of tier caches
    std::uint64_t resident_bytes = 0;
  };

  Manager(sim::Simulation& sim, net::Fabric& fabric,
          net::Fabric::Shape peer_shape)
      : sim_(&sim), fabric_(&fabric), shape_(peer_shape) {}

  const Stats& stats() const { return stats_; }

  /// The reserved content key of group `gid`'s parity block.
  static core::ChunkKey parity_key(std::uint64_t gid) {
    return core::ChunkKey{gid, 2};
  }

  // --- membership -----------------------------------------------------------

  /// Registers a compute node's decoded-chunk cache with the tier.
  /// Idempotent per node; a re-attach replaces the cache pointer.
  void attach(net::NodeId node, core::DecodedChunkCache* cache);
  /// Fail-stop: the node's cache contents are gone (cleared by the caller).
  /// Open groups touching the node are dropped. Sealed groups where the
  /// node is a *member* are kept — rebuilding the dead node's members is
  /// exactly what the tier is for. Sealed groups where the node is the parity
  /// *holder* lost their parity block with the cache and are invalidated
  /// (they can no longer rebuild anything; counting their parity bytes as
  /// durable would be a lie). The node itself leaves the tier until a
  /// replacement instance re-attaches.
  void drop_node(net::NodeId node);
  /// Cold restart / repository-outage drill: every cache was cleared, so
  /// every group's payloads and parity blocks are gone. Drops all state.
  void drop_all();

  // --- commit path ----------------------------------------------------------

  /// Folds `node`'s freshly committed chunks into parity groups (see file
  /// comment). Also seeds the committing node's own cache with the decoded
  /// payloads — that resident copy is what rebuilds of *other* members of
  /// the group will read later. Forms no group with < 2 nodes attached.
  sim::Task<> encode_commit(net::NodeId node,
                            std::vector<ChunkPayload> chunks);

  /// Seals every partially-filled open group (checkpoint boundary: a
  /// narrower group still protects its members). Safe to call repeatedly.
  void seal_open_groups();

  // --- restart path ---------------------------------------------------------

  /// True iff `key` is a member of a *sealed* group (rebuild may still fail
  /// if survivor payloads or the parity block were evicted).
  bool protects(const core::ChunkKey& key) const;

  /// Reconstructs the payload of member `key`, delivering to `dst` over the
  /// peer traffic class. nullopt when the key is unprotected or too much of
  /// the group is gone — the caller falls through to the repository.
  sim::Task<std::optional<common::Buffer>> rebuild(core::ChunkKey key,
                                                   net::NodeId dst);

  /// Direct peer copy out of the tier's resident copies: the first attached
  /// node cache (attach order, deterministic) holding `key` ships it to
  /// `dst` over the peer class. The tier, like the repository, outlives a
  /// single deployment — this level serves a rollback onto a fresh
  /// Deployment whose prefetch bus has no holder registry yet, out of the
  /// previous deployment's surviving node caches. nullopt on a miss.
  sim::Task<std::optional<common::Buffer>> fetch_resident(core::ChunkKey key,
                                                          net::NodeId dst);

  // --- GC -------------------------------------------------------------------

  /// GC observer: any group holding a reclaimed member is invalidated and
  /// its parity block is erased from the holder cache.
  void forget_chunks(const std::vector<blob::ChunkId>& ids) override;

  /// Parity blocks still resident in attached holder caches (orphan check).
  std::size_t resident_parity_blocks() const;
  /// The group id protecting `key`, if any (tests probe parity residency).
  std::optional<std::uint64_t> group_of(const core::ChunkKey& key) const {
    const auto it = member_gid_.find(key);
    if (it == member_gid_.end()) return std::nullopt;
    return it->second;
  }
  /// Parity holder node of group `gid` (nullopt when unknown).
  std::optional<net::NodeId> holder_of(std::uint64_t gid) const {
    const auto it = groups_.find(gid);
    if (it == groups_.end()) return std::nullopt;
    return it->second.holder;
  }

 private:
  struct Member {
    core::ChunkKey key;
    blob::ChunkId id = 0;
    net::NodeId node = 0;
    std::uint32_t size = 0;  // logical payload length
    /// Simulation ground truth for payloads with real content. The real
    /// parity block's bits reconstruct a lost member exactly, but the
    /// simulator cannot XOR phantom bytes — a co-member's phantom segment
    /// would degrade this member's real segments to phantom on rebuild.
    /// Kept only when the payload has real bytes; pure-phantom bulk
    /// payloads (the benchmark regime) stay O(1).
    common::Buffer truth;
  };
  struct Group {
    std::uint64_t gid = 0;
    bool sealed = false;
    std::size_t target = 0;  // member count that seals the group
    std::vector<Member> members;
    net::NodeId holder = 0;  // parity holder node
    common::Buffer accum;    // running XOR
    /// Sealed-block size (stats_ accounting stays honest when a block is
    /// evicted or dies with its holder before the group is dropped).
    std::uint64_t parity_block_size = 0;
  };

  core::DecodedChunkCache* cache_for(net::NodeId node) const;
  bool group_has_node(const Group& g, net::NodeId node) const;
  /// An open group node may join, or a freshly opened one. nullptr when no
  /// group can be formed (fewer than 2 attached nodes).
  Group* pick_group(net::NodeId node);
  void seal(Group& g);
  void drop_group(std::uint64_t gid);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::Fabric::Shape shape_;
  Stats stats_;
  std::uint64_t next_gid_ = 1;
  std::size_t holder_rr_ = 0;  // round-robin cursor over nodes_
  std::vector<net::NodeId> nodes_;  // attach order
  std::unordered_map<net::NodeId, core::DecodedChunkCache*> caches_;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::vector<std::uint64_t> open_;  // open group ids, oldest first
  std::unordered_map<core::ChunkKey, std::uint64_t, core::ChunkKeyHash>
      member_gid_;
  std::unordered_map<blob::ChunkId, std::uint64_t> id_gid_;
};

}  // namespace blobcr::redundancy
