// SharedResource: a fluid-model resource (disk head, bus, CPU share) whose
// capacity is divided equally among concurrently active flows. A flow's
// completion time is recomputed whenever the set of active flows changes.
#pragma once

#include <cassert>
#include <cstdint>
#include <list>
#include <string>

#include "sim/process.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace blobcr::sim {

class SharedResource {
 public:
  SharedResource(Simulation& sim, std::string name, double capacity_bps)
      : sim_(&sim), name_(std::move(name)), cap_(capacity_bps) {}
  SharedResource(const SharedResource&) = delete;
  SharedResource& operator=(const SharedResource&) = delete;

  class UseAwaiter;

  /// co_await res.use(bytes): completes once `bytes` have moved through this
  /// resource at its fair-share rate.
  UseAwaiter use(std::uint64_t bytes);

  double capacity() const { return cap_; }
  void set_capacity(double bps);

  std::size_t active_flows() const { return flows_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Total virtual time during which at least one flow was active.
  Duration busy_time() const { return busy_time_; }
  const std::string& name() const { return name_; }

 private:
  friend class UseAwaiter;

  void settle();
  void reschedule_all();

  Simulation* sim_;
  std::string name_;
  double cap_;
  std::list<UseAwaiter*> flows_;
  Time last_settle_ = 0;
  double rate_per_flow_ = 0;
  std::uint64_t total_bytes_ = 0;
  Duration busy_time_ = 0;
};

class SharedResource::UseAwaiter : public Blocker {
 public:
  UseAwaiter(SharedResource& r, std::uint64_t bytes)
      : res_(&r), remaining_(static_cast<double>(bytes)), bytes_(bytes) {}

  bool await_ready() const noexcept { return bytes_ == 0; }

  void await_suspend(std::coroutine_handle<> h) {
    proc_ = res_->sim_->current_process();
    assert(proc_ != nullptr && "resource use outside a process");
    h_ = h;
    proc_->set_blocker(this);
    res_->settle();
    it_ = res_->flows_.insert(res_->flows_.end(), this);
    res_->total_bytes_ += bytes_;
    res_->reschedule_all();
  }

  void await_resume() const noexcept {}

  void cancel() noexcept override {
    res_->settle();
    res_->flows_.erase(it_);
    done_ev_.cancel();
    res_->reschedule_all();
  }

 private:
  friend class SharedResource;

  void complete() {
    SharedResource* r = res_;
    r->settle();
    r->flows_.erase(it_);
    Process* p = proc_;
    std::coroutine_handle<> h = h_;
    p->clear_blocker(this);
    r->reschedule_all();
    // May destroy `this` (the frame advances past the co_await).
    p->resume_leaf(h);
  }

  SharedResource* res_;
  double remaining_;
  std::uint64_t bytes_;
  Process* proc_ = nullptr;
  std::coroutine_handle<> h_{};
  std::list<UseAwaiter*>::iterator it_{};
  TimerHandle done_ev_;
};

inline SharedResource::UseAwaiter SharedResource::use(std::uint64_t bytes) {
  return UseAwaiter(*this, bytes);
}

inline void SharedResource::set_capacity(double bps) {
  settle();
  cap_ = bps;
  reschedule_all();
}

inline void SharedResource::settle() {
  const Time now = sim_->now();
  const Duration dt = now - last_settle_;
  if (dt > 0 && !flows_.empty()) {
    const double moved = rate_per_flow_ * to_seconds(dt);
    for (UseAwaiter* f : flows_) {
      f->remaining_ -= moved;
      if (f->remaining_ < 0) f->remaining_ = 0;
    }
    busy_time_ += dt;
  }
  last_settle_ = now;
}

inline void SharedResource::reschedule_all() {
  rate_per_flow_ =
      flows_.empty() ? 0.0 : cap_ / static_cast<double>(flows_.size());
  for (UseAwaiter* f : flows_) {
    const Duration eta =
        transfer_time(static_cast<std::uint64_t>(f->remaining_ + 0.5),
                      rate_per_flow_);
    sim_->reschedule_in(f->done_ev_, eta, [f] { f->complete(); });
  }
}

}  // namespace blobcr::sim
