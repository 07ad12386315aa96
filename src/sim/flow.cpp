#include "sim/flow.h"

#include <cassert>

namespace blobcr::sim {

double Flow::fair_rate() const {
  double share = a_->cap_ / static_cast<double>(a_->flows_.size());
  if (b_ != nullptr) {
    const double b_share = b_->cap_ / static_cast<double>(b_->flows_.size());
    if (b_share < share) share = b_share;
  }
  return (rate_cap_ > 0 && rate_cap_ < share) ? rate_cap_ : share;
}

void Flow::settle_and_retime() {
  const Time now = sim_->now();
  const Duration dt = now - last_update_;
  if (dt > 0) {
    remaining_ -= rate_ * to_seconds(dt);
    if (remaining_ < 0) remaining_ = 0;
  }
  last_update_ = now;
  rate_ = fair_rate();
  const Duration eta = transfer_time(
      static_cast<std::uint64_t>(remaining_ + 0.5), rate_);
  sim_->reschedule_in(done_ev_, eta, [this] { complete(); });
}

void Flow::retime_ports() {
  for (Flow* f : a_->flows_) f->settle_and_retime();
  if (b_ == nullptr) return;
  for (Flow* f : b_->flows_) {
    if (!f->crosses(*a_)) f->settle_and_retime();
  }
}

void Flow::await_suspend(std::coroutine_handle<> h) {
  proc_ = sim_->current_process();
  assert(proc_ != nullptr && "flow outside a process");
  h_ = h;
  proc_->set_blocker(this);
  last_update_ = sim_->now();
  a_it_ = a_->flows_.insert(a_->flows_.end(), this);
  if (b_ != nullptr) b_it_ = b_->flows_.insert(b_->flows_.end(), this);
  retime_ports();
}

void Flow::leave() {
  a_->flows_.erase(a_it_);
  if (b_ != nullptr) b_->flows_.erase(b_it_);
  retime_ports();
}

void Flow::complete() {
  Process* p = proc_;
  std::coroutine_handle<> h = h_;
  p->clear_blocker(this);
  leave();
  p->resume_leaf(h);  // may destroy `this`
}

void Flow::cancel() noexcept {
  done_ev_.cancel();
  leave();
}

}  // namespace blobcr::sim
