// Tests for the network fabric: latency, fair sharing at tx/rx ports,
// incast, cancellation, RPC service serialization.
#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.h"
#include "net/service.h"
#include "sim/sim.h"

namespace blobcr::net {
namespace {

using sim::Duration;
using sim::Simulation;
using sim::Task;
using sim::Time;
using sim::seconds;
using sim::to_seconds;

Fabric::Config test_cfg(std::size_t nodes, double bw = 100.0,
                        Duration lat = 0) {
  Fabric::Config cfg;
  cfg.node_count = nodes;
  cfg.nic_bandwidth_bps = bw;
  cfg.latency = lat;
  return cfg;
}

Task<> do_transfer(Simulation& s, Fabric& f, NodeId src, NodeId dst,
                   std::uint64_t bytes, std::vector<Time>& done) {
  co_await f.transfer(src, dst, bytes);
  done.push_back(s.now());
}

TEST(FabricTest, SingleTransferLatencyPlusBandwidth) {
  Simulation s;
  Fabric f(s, test_cfg(2, 100.0, sim::milliseconds(5)));
  std::vector<Time> done;
  s.spawn("t", do_transfer(s, f, 0, 1, 200, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 0.005 + 2.0, 1e-6);
}

TEST(FabricTest, LoopbackPaysLatencyOnly) {
  Simulation s;
  Fabric f(s, test_cfg(2, 100.0, sim::milliseconds(5)));
  std::vector<Time> done;
  s.spawn("t", do_transfer(s, f, 0, 0, 1'000'000, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 0.005, 1e-9);
}

TEST(FabricTest, TwoFlowsShareTxPort) {
  Simulation s;
  Fabric f(s, test_cfg(3));
  std::vector<Time> done;
  s.spawn("t1", do_transfer(s, f, 0, 1, 100, done));
  s.spawn("t2", do_transfer(s, f, 0, 2, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(to_seconds(done[0]), 2.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 2.0, 1e-6);
}

TEST(FabricTest, DisjointPairsRunAtFullRate) {
  Simulation s;
  Fabric f(s, test_cfg(4));
  std::vector<Time> done;
  s.spawn("t1", do_transfer(s, f, 0, 1, 100, done));
  s.spawn("t2", do_transfer(s, f, 2, 3, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(to_seconds(done[0]), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 1.0, 1e-6);
}

TEST(FabricTest, IncastSharesRxPort) {
  Simulation s;
  Fabric f(s, test_cfg(5));
  std::vector<Time> done;
  // 4 senders, one receiver: each gets rx_cap/4.
  for (NodeId n = 1; n <= 4; ++n) {
    s.spawn("t", do_transfer(s, f, n, 0, 100, done));
  }
  s.run();
  ASSERT_EQ(done.size(), 4u);
  for (const Time t : done) EXPECT_NEAR(to_seconds(t), 4.0, 1e-6);
}

TEST(FabricTest, BottleneckIsMinOfPorts) {
  Simulation s;
  Fabric f(s, test_cfg(4));
  std::vector<Time> done;
  // Flows: A(0->2), B(1->2) contend at rx of 2. C(0->3) contends with A at
  // tx of 0. A's rate = min(100/2, 100/2) = 50. C's = min(50, 100) = 50.
  s.spawn("A", do_transfer(s, f, 0, 2, 100, done));
  s.spawn("B", do_transfer(s, f, 1, 2, 100, done));
  s.spawn("C", do_transfer(s, f, 0, 3, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 3u);
  // A and B and C all at 50 B/s initially; total 100 bytes each -> all ~2s.
  for (const Time t : done) EXPECT_NEAR(to_seconds(t), 2.0, 0.05);
}

Task<> transfer_after(Simulation& s, Fabric& f, Duration start, NodeId src,
                      NodeId dst, std::uint64_t bytes, std::vector<Time>& done) {
  co_await s.delay(start);
  co_await f.transfer(src, dst, bytes);
  done.push_back(s.now());
}

TEST(FabricTest, DepartureSpeedsUpRemaining) {
  Simulation s;
  Fabric f(s, test_cfg(3));
  std::vector<Time> done;
  s.spawn("small", do_transfer(s, f, 0, 1, 50, done));
  s.spawn("large", do_transfer(s, f, 0, 2, 150, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Both at 50 B/s. Small finishes at t=1 (50 bytes). Large then speeds to
  // 100 B/s with 100 bytes left -> finishes at t=2.
  EXPECT_NEAR(to_seconds(done[0]), 1.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 2.0, 1e-3);
}

TEST(FabricTest, LateArrivalSlowsExistingFlow) {
  Simulation s;
  Fabric f(s, test_cfg(3));
  std::vector<Time> done;
  s.spawn("a", do_transfer(s, f, 0, 1, 200, done));
  s.spawn("b", transfer_after(s, f, seconds(1), 0, 2, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // a: 100 bytes alone in [0,1], then 100 bytes at 50 B/s -> t=3.
  // b: 100 bytes at 50 B/s from t=1 -> t=3.
  EXPECT_NEAR(to_seconds(done[0]), 3.0, 1e-3);
  EXPECT_NEAR(to_seconds(done[1]), 3.0, 1e-3);
}

TEST(FabricTest, KillCancelsFlowAndFreesBandwidth) {
  Simulation s;
  Fabric f(s, test_cfg(3));
  std::vector<Time> done;
  auto hog = s.spawn("hog", do_transfer(s, f, 0, 1, 10'000, done));
  s.spawn("small", do_transfer(s, f, 0, 2, 100, done));
  s.call_at(seconds(1), [&] { hog->kill(); });
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // small: 50 bytes in [0,1], then 50 bytes at full 100 B/s -> 1.5 s.
  EXPECT_NEAR(to_seconds(done[0]), 1.5, 1e-3);
  EXPECT_EQ(f.active_flows(), 0u);
}

TEST(FabricTest, TracksTotalBytes) {
  Simulation s;
  Fabric f(s, test_cfg(2));
  std::vector<Time> done;
  s.spawn("t", do_transfer(s, f, 0, 1, 123, done));
  s.run();
  EXPECT_EQ(f.total_bytes(), 123u);
}

Task<> do_shaped(Simulation& s, Fabric& f, NodeId src, NodeId dst,
                 std::uint64_t bytes, Fabric::Shape shape,
                 std::vector<Time>& done) {
  co_await f.transfer(src, dst, bytes, shape);
  done.push_back(s.now());
}

// A shaped flow pays its traffic class's one-way latency instead of the
// fabric default, and its rate never exceeds the class cap even when the
// NIC fair share is larger (the WAN class the federation replicator uses).
TEST(FabricShapeTest, ShapedTransferPaysClassLatencyAndRateCap) {
  Simulation s;
  Fabric f(s, test_cfg(2, 100.0, sim::milliseconds(5)));
  std::vector<Time> done;
  Fabric::Shape wan;
  wan.latency = sim::milliseconds(100);
  wan.rate_cap_bps = 10.0;
  s.spawn("wan", do_shaped(s, f, 0, 1, 100, wan, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // 100 ms class latency (not the 5 ms fabric default) + 100 B at 10 B/s.
  EXPECT_NEAR(to_seconds(done[0]), 0.100 + 10.0, 1e-6);
}

// A zero class latency falls back to the fabric default; a cap above the
// fair share is inert — the flow is NIC-limited as if unshaped.
TEST(FabricShapeTest, ShapeDefaultsFallBackToFabricBehaviour) {
  Simulation s;
  Fabric f(s, test_cfg(2, 100.0, sim::milliseconds(5)));
  std::vector<Time> done;
  Fabric::Shape loose;
  loose.rate_cap_bps = 1000.0;  // above the 100 B/s NIC: never binds
  s.spawn("t", do_shaped(s, f, 0, 1, 200, loose, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 0.005 + 2.0, 1e-6);
}

// Two asymmetric traffic classes on disjoint node pairs: a high-latency,
// tightly capped WAN class and a low-latency peer class finish at the times
// their own shapes dictate — neither inherits the other's parameters.
TEST(FabricShapeTest, AsymmetricTrafficClassesCompleteIndependently) {
  Simulation s;
  Fabric f(s, test_cfg(5, 100.0, 0));
  std::vector<Time> done_wan, done_peer;
  Fabric::Shape wan;
  wan.latency = sim::milliseconds(100);
  wan.rate_cap_bps = 10.0;
  Fabric::Shape peer;
  peer.latency = sim::milliseconds(1);
  peer.rate_cap_bps = 50.0;
  s.spawn("wan", do_shaped(s, f, 0, 1, 100, wan, done_wan));
  s.spawn("peer", do_shaped(s, f, 2, 3, 100, peer, done_peer));
  s.run();
  ASSERT_EQ(done_wan.size(), 1u);
  ASSERT_EQ(done_peer.size(), 1u);
  EXPECT_NEAR(to_seconds(done_wan[0]), 0.100 + 10.0, 1e-6);
  EXPECT_NEAR(to_seconds(done_peer[0]), 0.001 + 2.0, 1e-6);
}

// Non-starvation: a long capped WAN flow sharing a tx port with an uncapped
// local flow neither starves it nor is starved. The local flow keeps its
// count-based fair share (cap/2) and finishes on schedule; the WAN flow
// crawls along at its cap the whole time.
TEST(FabricShapeTest, CappedWanFlowDoesNotStarveUncappedPeer) {
  Simulation s;
  Fabric f(s, test_cfg(3, 100.0, 0));
  std::vector<Time> done_wan, done_local;
  Fabric::Shape wan;
  wan.rate_cap_bps = 10.0;
  s.spawn("wan", do_shaped(s, f, 0, 1, 1000, wan, done_wan));
  s.spawn("local", do_transfer(s, f, 0, 2, 100, done_local));
  s.run();
  ASSERT_EQ(done_wan.size(), 1u);
  ASSERT_EQ(done_local.size(), 1u);
  // Local: 100 B at the 50 B/s fair share -> 2 s, unaffected by the cap.
  EXPECT_NEAR(to_seconds(done_local[0]), 2.0, 1e-3);
  // WAN: 1000 B pinned at 10 B/s even after the port frees up -> 100 s.
  EXPECT_NEAR(to_seconds(done_wan[0]), 100.0, 1e-2);
}

Task<> one_rpc(Simulation& s, Fabric& f, ServiceQueue& svc, NodeId client,
               std::vector<Time>& done) {
  co_await rpc(f, svc, client, 0, 100, 100);
  done.push_back(s.now());
}

TEST(ServiceQueueTest, SerializesRequests) {
  Simulation s;
  Fabric f(s, test_cfg(3, 1e9, 0));  // effectively instant network
  ServiceQueue svc(s, "meta", sim::milliseconds(10));
  std::vector<Time> done;
  s.spawn("c1", one_rpc(s, f, svc, 1, done));
  s.spawn("c2", one_rpc(s, f, svc, 2, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(to_seconds(done[0]), 0.010, 1e-3);
  EXPECT_NEAR(to_seconds(done[1]), 0.020, 1e-3);
  EXPECT_EQ(svc.requests_served(), 2u);
}

}  // namespace
}  // namespace blobcr::net
