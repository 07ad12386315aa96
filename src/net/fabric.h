// Fabric: the cluster interconnect. Star topology of nodes behind an ideal
// switch; each node has full-duplex NIC ports (tx and rx) of equal capacity.
//
// A transfer src->dst is a sim::Flow crossing src's tx port and dst's rx
// port (sim/flow.h): its instantaneous rate is min(tx_cap / tx_flows,
// rx_cap / rx_flows), under the transfer's optional rate cap.
#pragma once

#include <cstdint>
#include <deque>

#include "sim/sim.h"

namespace blobcr::net {

using NodeId = std::uint32_t;

class Fabric {
 public:
  struct Config {
    std::size_t node_count = 0;
    double nic_bandwidth_bps = 117.5e6;     // paper: measured GbE TCP rate
    sim::Duration latency = 100 * sim::kMicrosecond;  // paper: ~0.1 ms
  };

  Fabric(sim::Simulation& sim, const Config& cfg);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Per-transfer shaping: lets a traffic class run with its own one-way
  /// latency and an application-level rate cap on top of the NIC fair
  /// share. The restart data plane uses this to model intra-deployment
  /// peer copies distinctly from repository transfers.
  struct Shape {
    /// Overrides the fabric's default one-way latency when non-zero.
    sim::Duration latency = 0;
    /// Caps this flow's instantaneous rate (bps); 0 = NIC-limited only.
    double rate_cap_bps = 0;
  };

  /// Moves `bytes` from src to dst: one-way latency plus fluid bandwidth
  /// share. Loopback (src == dst) pays latency only.
  sim::Task<> transfer(NodeId src, NodeId dst, std::uint64_t bytes);

  /// Shaped variant: same fluid model, but the flow pays `shape.latency`
  /// (when set) and never exceeds `shape.rate_cap_bps` (when set) even if
  /// its NIC fair share is larger.
  sim::Task<> transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                       Shape shape);

  /// Small control message (latency + negligible payload).
  sim::Task<> message(NodeId src, NodeId dst);

  sim::Duration latency() const { return cfg_.latency; }
  std::size_t node_count() const { return tx_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::size_t active_flows() const {
    std::size_t n = 0;
    for (const sim::FlowPort& p : tx_) n += p.active_flows();
    return n;
  }

 private:
  sim::Simulation* sim_;
  Config cfg_;
  // Deques: a port never moves, because its flows point to it.
  std::deque<sim::FlowPort> tx_;
  std::deque<sim::FlowPort> rx_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace blobcr::net
