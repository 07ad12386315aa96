// Flow: the one fluid bandwidth-sharing model, used by every disk and NIC.
//
// A FlowPort is one shared capacity (a disk head, one direction of a NIC
// port) and the flows crossing it. A Flow crosses one port (a disk) or two
// (the sender's tx and the receiver's rx); its instantaneous rate is the
// smallest capacity / flows over its ports, under an optional rate cap. On
// every arrival, completion or kill only the flows on the changed ports are
// settled at the rate they ran at and re-timed. This count-based fair share
// reproduces the first-order contention behaviour of TCP on a non-blocking
// GbE switch (the paper's testbed) and of a disk serving interleaved
// streams, at event-queue cost O(flows per port) per change.
#pragma once

#include <cstdint>
#include <list>

#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace blobcr::sim {

class Flow;

/// One shared capacity and the flows crossing it.
class FlowPort {
 public:
  explicit FlowPort(double capacity_bps) : cap_(capacity_bps) {}
  FlowPort(const FlowPort&) = delete;
  FlowPort& operator=(const FlowPort&) = delete;

  std::size_t active_flows() const { return flows_.size(); }

 private:
  friend class Flow;

  double cap_;
  std::list<Flow*> flows_;
};

/// co_await Flow(...): completes once `bytes` have crossed the port(s) at
/// the fair-share rate. Zero bytes complete without suspending.
class Flow : public Blocker {
 public:
  Flow(Simulation& sim, FlowPort& port, std::uint64_t bytes)
      : Flow(sim, port, nullptr, bytes, 0) {}
  /// Never runs faster than `rate_cap_bps` when that is non-zero.
  Flow(Simulation& sim, FlowPort& a, FlowPort& b, std::uint64_t bytes,
       double rate_cap_bps = 0)
      : Flow(sim, a, &b, bytes, rate_cap_bps) {}
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  bool await_ready() const noexcept { return bytes_ == 0; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
  void cancel() noexcept override;

 private:
  Flow(Simulation& sim, FlowPort& a, FlowPort* b, std::uint64_t bytes,
       double rate_cap_bps)
      : sim_(&sim),
        a_(&a),
        b_(b),
        remaining_(static_cast<double>(bytes)),
        bytes_(bytes),
        rate_cap_(rate_cap_bps) {}

  bool crosses(const FlowPort& p) const { return a_ == &p || b_ == &p; }
  double fair_rate() const;
  /// Settles the bytes moved at the rate in effect, then reschedules the
  /// completion at the current fair rate.
  void settle_and_retime();
  /// Re-times every flow on the changed ports; a flow on both is re-timed
  /// once.
  void retime_ports();
  void leave();
  void complete();

  Simulation* sim_;
  FlowPort* a_;
  FlowPort* b_;  // null for a one-port flow
  double remaining_;
  std::uint64_t bytes_;
  double rate_cap_;  // 0 = uncapped
  double rate_ = 0;
  Time last_update_ = 0;
  Process* proc_ = nullptr;
  std::coroutine_handle<> h_{};
  std::list<Flow*>::iterator a_it_{};
  std::list<Flow*>::iterator b_it_{};
  TimerHandle done_ev_;
};

}  // namespace blobcr::sim
