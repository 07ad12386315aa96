// MetadataCluster: the distributed metadata layer. Immutable tree nodes are
// spread over the metadata provider nodes by hashing their NodeRef; clients
// batch node reads/writes per provider (one bulk message each) — the
// decentralized metadata scheme that lets BlobSeer scale where a single
// metadata server serializes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "blob/types.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "net/service.h"
#include "sim/sim.h"
#include "sim/when_all.h"

namespace blobcr::blob {

class MetadataCluster {
 public:
  struct Config {
    std::vector<net::NodeId> nodes;
    sim::Duration per_request_cost = 30 * sim::kMicrosecond;
  };
  static constexpr std::uint64_t kNodeRecordBytes = 64;  // serialized TreeNode

  MetadataCluster(sim::Simulation& sim, net::Fabric& fabric, const Config& cfg)
      : sim_(&sim), fabric_(&fabric), cfg_(cfg) {
    for (const net::NodeId n : cfg.nodes) {
      services_.push_back(std::make_unique<net::ServiceQueue>(
          sim, "meta@" + std::to_string(n), cfg.per_request_cost));
    }
  }

  /// Stores a batch of freshly built nodes; one bulk transfer per provider.
  sim::Task<> put_nodes(net::NodeId client,
                        std::vector<std::pair<NodeRef, TreeNode>> nodes);

  /// Fetches a batch of nodes into `out`; one bulk round-trip per provider.
  sim::Task<> get_nodes(net::NodeId client, const std::vector<NodeRef>& refs,
                        std::unordered_map<NodeRef, TreeNode>& out);

  /// In-process inspection (garbage collector, tests); no simulated cost.
  const TreeNode* peek_node(NodeRef ref) const {
    const auto it = records_.find(ref);
    return it == records_.end() ? nullptr : &it->second;
  }

  std::uint64_t stored_meta_bytes() const {
    return records_.size() * kNodeRecordBytes;
  }
  std::size_t node_count() const { return records_.size(); }

 private:
  std::size_t provider_of(NodeRef ref) const {
    return static_cast<std::size_t>(common::mix64(ref) % cfg_.nodes.size());
  }

  sim::Task<> put_batch(net::NodeId client, std::size_t provider,
                        std::uint64_t bytes);
  sim::Task<> get_batch(net::NodeId client, std::size_t provider,
                        std::uint64_t bytes);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  Config cfg_;
  std::vector<std::unique_ptr<net::ServiceQueue>> services_;
  std::unordered_map<NodeRef, TreeNode> records_;
};

inline sim::Task<> MetadataCluster::put_batch(net::NodeId client,
                                              std::size_t provider,
                                              std::uint64_t bytes) {
  co_await fabric_->transfer(client, cfg_.nodes[provider], bytes);
  co_await services_[provider]->process();
  co_await fabric_->message(cfg_.nodes[provider], client);  // ack
}

inline sim::Task<> MetadataCluster::get_batch(net::NodeId client,
                                              std::size_t provider,
                                              std::uint64_t bytes) {
  co_await fabric_->message(client, cfg_.nodes[provider]);
  co_await services_[provider]->process();
  co_await fabric_->transfer(cfg_.nodes[provider], client, bytes);
}

inline sim::Task<> MetadataCluster::put_nodes(
    net::NodeId client, std::vector<std::pair<NodeRef, TreeNode>> nodes) {
  std::vector<std::uint64_t> batch_bytes(cfg_.nodes.size(), 0);
  for (auto& [ref, node] : nodes) {
    batch_bytes[provider_of(ref)] += kNodeRecordBytes;
    records_[ref] = std::move(node);
  }
  std::vector<sim::Task<>> transfers;
  for (std::size_t p = 0; p < batch_bytes.size(); ++p) {
    if (batch_bytes[p] > 0) transfers.push_back(put_batch(client, p, batch_bytes[p]));
  }
  co_await sim::when_all(*sim_, std::move(transfers));
}

inline sim::Task<> MetadataCluster::get_nodes(
    net::NodeId client, const std::vector<NodeRef>& refs,
    std::unordered_map<NodeRef, TreeNode>& out) {
  std::vector<std::uint64_t> batch_bytes(cfg_.nodes.size(), 0);
  for (const NodeRef ref : refs) {
    const auto it = records_.find(ref);
    if (it == records_.end()) throw BlobError("metadata node missing");
    batch_bytes[provider_of(ref)] += kNodeRecordBytes;
    out[ref] = it->second;
  }
  std::vector<sim::Task<>> transfers;
  for (std::size_t p = 0; p < batch_bytes.size(); ++p) {
    if (batch_bytes[p] > 0) transfers.push_back(get_batch(client, p, batch_bytes[p]));
  }
  co_await sim::when_all(*sim_, std::move(transfers));
}

}  // namespace blobcr::blob
