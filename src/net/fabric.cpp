#include "net/fabric.h"

#include <cassert>

namespace blobcr::net {

Fabric::Fabric(sim::Simulation& sim, const Config& cfg)
    : sim_(&sim), cfg_(cfg) {
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    tx_.emplace_back(cfg.nic_bandwidth_bps);
    rx_.emplace_back(cfg.nic_bandwidth_bps);
  }
}

sim::Task<> Fabric::transfer(NodeId src, NodeId dst, std::uint64_t bytes) {
  co_await transfer(src, dst, bytes, Shape{});
}

sim::Task<> Fabric::transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                             Shape shape) {
  assert(src < tx_.size() && dst < rx_.size());
  co_await sim_->delay(shape.latency > 0 ? shape.latency : cfg_.latency);
  if (src == dst || bytes == 0) co_return;  // loopback: memory copy, no NIC
  total_bytes_ += bytes;
  co_await sim::Flow(*sim_, tx_[src], rx_[dst], bytes, shape.rate_cap_bps);
}

sim::Task<> Fabric::message(NodeId src, NodeId dst) {
  // Control messages are latency-bound on GbE; payload is negligible.
  co_await transfer(src, dst, 0);
}

}  // namespace blobcr::net
