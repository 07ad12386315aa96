#include "net/fabric.h"

namespace blobcr::net {

Fabric::Fabric(sim::Simulation& sim, const Config& cfg)
    : sim_(&sim),
      cfg_(cfg),
      ports_tx_(cfg.node_count),
      ports_rx_(cfg.node_count) {}

sim::Task<> Fabric::transfer(NodeId src, NodeId dst, std::uint64_t bytes) {
  co_await transfer(src, dst, bytes, Shape{});
}

sim::Task<> Fabric::transfer(NodeId src, NodeId dst, std::uint64_t bytes,
                             Shape shape) {
  assert(src < ports_tx_.size() && dst < ports_rx_.size());
  co_await sim_->delay(shape.latency > 0 ? shape.latency : cfg_.latency);
  if (src == dst || bytes == 0) co_return;  // loopback: memory copy, no NIC
  total_bytes_ += bytes;
  co_await FlowAwaiter(*this, src, dst, bytes, shape.rate_cap_bps);
}

sim::Task<> Fabric::message(NodeId src, NodeId dst) {
  // Control messages are latency-bound on GbE; payload is negligible.
  co_await transfer(src, dst, 0);
}

double Fabric::FlowAwaiter::fair_rate() const {
  const double tx_share = fab_->cfg_.nic_bandwidth_bps /
                          static_cast<double>(fab_->ports_tx_[src_].flows.size());
  const double rx_share = fab_->cfg_.nic_bandwidth_bps /
                          static_cast<double>(fab_->ports_rx_[dst_].flows.size());
  const double share = tx_share < rx_share ? tx_share : rx_share;
  return (rate_cap_ > 0 && rate_cap_ < share) ? rate_cap_ : share;
}

void Fabric::settle_and_retime(FlowAwaiter* f) {
  const sim::Time now = sim_->now();
  const sim::Duration dt = now - f->last_update_;
  if (dt > 0) {
    f->remaining_ -= f->rate_ * sim::to_seconds(dt);
    if (f->remaining_ < 0) f->remaining_ = 0;
  }
  f->last_update_ = now;
  f->rate_ = f->fair_rate();
  const sim::Duration eta = sim::transfer_time(
      static_cast<std::uint64_t>(f->remaining_ + 0.5), f->rate_);
  sim_->reschedule_in(f->done_ev_, eta, [f] { f->complete(); });
}

void Fabric::on_ports_changed(Port& a, Port& b) {
  // A flow may appear in both ports; the generation stamp dedupes it.
  ++retime_gen_;
  for (FlowAwaiter* f : a.flows) {
    f->retime_gen_ = retime_gen_;
    settle_and_retime(f);
  }
  for (FlowAwaiter* f : b.flows) {
    if (f->retime_gen_ == retime_gen_) continue;
    settle_and_retime(f);
  }
}

void Fabric::FlowAwaiter::await_suspend(std::coroutine_handle<> h) {
  proc_ = fab_->sim_->current_process();
  assert(proc_ != nullptr && "network transfer outside a process");
  h_ = h;
  proc_->set_blocker(this);
  last_update_ = fab_->sim_->now();
  Port& tx = fab_->ports_tx_[src_];
  Port& rx = fab_->ports_rx_[dst_];
  tx_it_ = tx.flows.insert(tx.flows.end(), this);
  rx_it_ = rx.flows.insert(rx.flows.end(), this);
  ++fab_->active_flows_;
  fab_->on_ports_changed(tx, rx);
}

void Fabric::FlowAwaiter::complete() {
  Fabric* fab = fab_;
  Port& tx = fab->ports_tx_[src_];
  Port& rx = fab->ports_rx_[dst_];
  tx.flows.erase(tx_it_);
  rx.flows.erase(rx_it_);
  --fab->active_flows_;
  sim::Process* p = proc_;
  std::coroutine_handle<> h = h_;
  p->clear_blocker(this);
  fab->on_ports_changed(tx, rx);
  p->resume_leaf(h);  // may destroy `this`
}

void Fabric::FlowAwaiter::cancel() noexcept {
  Port& tx = fab_->ports_tx_[src_];
  Port& rx = fab_->ports_rx_[dst_];
  tx.flows.erase(tx_it_);
  rx.flows.erase(rx_it_);
  --fab_->active_flows_;
  done_ev_.cancel();
  fab_->on_ports_changed(tx, rx);
}

}  // namespace blobcr::net
