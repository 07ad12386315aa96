// Per-tenant quality of service for the shared repository services.
//
// A multi-tenant repository runs many jobs' commits, drains and restarts
// through one provider pool and one set of manager daemons. Two primitives
// keep a bulk-checkpointing tenant from starving everyone else:
//
//  * TenantRegistry — the repository-wide identity and weight table. Jobs
//    register once (Cloud::register_tenant) and tag their repository
//    requests with the returned TenantId. Tenant 0 is the implicit default
//    (single-job deployments never need to register).
//  * FairGate — a weighted-fair counting gate. In fair mode, waiters are
//    admitted in start-time-fair order: each tenant accumulates normalized
//    service (cost / weight) and the pending tenant with the least service
//    goes next, so a tenant with one small request overtakes a tenant with
//    a deep backlog while long-run throughput converges to the weight
//    ratio. In FIFO mode the gate is a plain bounded queue — the "QoS off"
//    baseline with identical capacity. Zero slots disable the gate (every
//    enter admits immediately), which is the single-tenant default.
//
// Kill-safety follows the simulator's fail-stop rules: a waiter killed in
// the queue unlinks itself; a waiter killed between hand-off and resume
// returns its slot; an admitted holder releases through the RAII Permit as
// its frame unwinds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/sim.h"

namespace blobcr::net {

/// Repository-wide job identity. 0 is the implicit default tenant.
using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

// Admission policy knobs live in qos::Config (src/qos/admission.h), which
// owns per-gate slot counts for the whole admission plane.

class TenantRegistry {
 public:
  struct Info {
    std::string name;
    double weight = 1.0;
  };

  /// Registers a tenant and returns its id (1-based; 0 stays the default
  /// tenant with weight 1). Weights are relative shares; non-positive
  /// weights are clamped to 1.
  TenantId register_tenant(std::string name, double weight = 1.0) {
    infos_.push_back(Info{std::move(name), weight > 0 ? weight : 1.0});
    return static_cast<TenantId>(infos_.size());
  }

  double weight(TenantId t) const {
    return (t == kDefaultTenant || t > infos_.size()) ? 1.0
                                                      : infos_[t - 1].weight;
  }
  const std::string& name(TenantId t) const {
    static const std::string kDefault = "default";
    return (t == kDefaultTenant || t > infos_.size()) ? kDefault
                                                      : infos_[t - 1].name;
  }
  std::size_t size() const { return infos_.size(); }

 private:
  std::vector<Info> infos_;
};

class FairGate {
 public:
  /// `slots` == 0 disables the gate (unbounded admission). `registry` may
  /// be nullptr (every tenant weighs 1). `fair` == false keeps strict FIFO
  /// order — the equal-capacity baseline for QoS ablations.
  FairGate(sim::Simulation& sim, std::size_t slots,
           const TenantRegistry* registry, bool fair)
      : sim_(&sim), slots_(slots), registry_(registry), fair_(fair) {}
  FairGate(const FairGate&) = delete;
  FairGate& operator=(const FairGate&) = delete;

  /// RAII admission slot. A default-constructed (or moved-from) permit owns
  /// nothing — enter() on a disabled gate returns such a permit.
  class Permit {
   public:
    Permit() = default;
    explicit Permit(FairGate* gate) : gate_(gate) {}
    Permit(Permit&& o) noexcept : gate_(std::exchange(o.gate_, nullptr)) {}
    Permit& operator=(Permit&& o) noexcept {
      if (this != &o) {
        release();
        gate_ = std::exchange(o.gate_, nullptr);
      }
      return *this;
    }
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() { release(); }
    void release() {
      if (gate_ != nullptr) std::exchange(gate_, nullptr)->release_slot();
    }

   private:
    FairGate* gate_ = nullptr;
  };

  /// Blocks until a slot is granted (in fair or FIFO order) and returns the
  /// holding permit. `cost` is the request's service demand in arbitrary
  /// units (seconds for manager requests, bytes for commits) — only ratios
  /// between requests matter for the fair ordering.
  sim::Task<Permit> enter(TenantId tenant, double cost) {
    if (slots_ == 0) co_return Permit();  // gate disabled
    if (in_use_ < slots_ && pending_.empty()) {
      ++in_use_;
      charge(tenant, cost);
      ++admitted_[tenant];
      co_return Permit(this);
    }
    Waiter w(*sim_, tenant, cost);
    w.enqueued = sim_->now();
    on_enqueue(tenant);
    pending_.push_back(&w);
    // Kill-safety: unlink on frame destruction; a granted-but-killed waiter
    // refunds the service it was charged at hand-off (it never ran) and
    // hands its slot onward instead of leaking it.
    struct Unlink {
      FairGate* gate;
      Waiter* w;
      ~Unlink() {
        if (w->consumed) return;
        if (w->granted) {
          gate->used_[w->tenant] -= w->charged;
          gate->release_slot();
        } else {
          gate->pending_.remove(w);
        }
      }
    } unlink{this, &w};
    while (!w.granted) co_await w.wq.wait();
    w.consumed = true;
    wait_time_[tenant] += sim_->now() - w.enqueued;
    ++admitted_[tenant];
    co_return Permit(this);
  }

  bool enabled() const { return slots_ > 0; }
  std::size_t pending() const { return pending_.size(); }
  std::size_t in_use() const { return in_use_; }

  /// Cumulative time `tenant`'s requests spent queued at this gate.
  sim::Duration wait_time(TenantId tenant) const {
    const auto it = wait_time_.find(tenant);
    return it == wait_time_.end() ? 0 : it->second;
  }
  std::uint64_t admitted(TenantId tenant) const {
    const auto it = admitted_.find(tenant);
    return it == admitted_.end() ? 0 : it->second;
  }

 private:
  friend class Permit;

  struct Waiter {
    Waiter(sim::Simulation& sim, TenantId tenant, double cost)
        : tenant(tenant), cost(cost), wq(sim) {}
    TenantId tenant;
    double cost;
    sim::Time enqueued = 0;
    double charged = 0;  // normalized service charged at hand-off
    bool granted = false;
    bool consumed = false;
    sim::WaitQueue wq;
  };

  double weight(TenantId t) const {
    return registry_ != nullptr ? registry_->weight(t) : 1.0;
  }

  /// Start-time clamp: a tenant going idle must not bank credit — when it
  /// becomes active again its service level starts at the gate's virtual
  /// clock, not at whatever it had consumed long ago.
  void on_enqueue(TenantId t) {
    for (const Waiter* w : pending_) {
      if (w->tenant == t) return;  // already active
    }
    auto& used = used_[t];
    used = std::max(used, vclock_);
  }

  void charge(TenantId t, double cost) {
    auto& used = used_[t];
    used = std::max(used, vclock_);
    vclock_ = used;  // virtual start time of the request being admitted
    used += cost / weight(t);
  }

  void release_slot() {
    if (pending_.empty()) {
      --in_use_;
      return;
    }
    // Hand the slot to the next waiter: least normalized service first in
    // fair mode (FIFO within a tenant by queue order), arrival order in
    // FIFO mode.
    auto next = pending_.begin();
    if (fair_) {
      for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
        const double a = tenant_usage((*it)->tenant);
        const double b = tenant_usage((*next)->tenant);
        if (a < b) next = it;
      }
    }
    Waiter* w = *next;
    pending_.erase(next);
    charge(w->tenant, w->cost);
    w->charged = w->cost / weight(w->tenant);
    w->granted = true;
    w->wq.notify_one();
  }

  double tenant_usage(TenantId t) const {
    const auto it = used_.find(t);
    return it == used_.end() ? 0.0 : it->second;
  }

  sim::Simulation* sim_;
  std::size_t slots_;
  const TenantRegistry* registry_;
  bool fair_;
  std::size_t in_use_ = 0;
  std::list<Waiter*> pending_;
  std::unordered_map<TenantId, double> used_;
  double vclock_ = 0.0;
  std::unordered_map<TenantId, sim::Duration> wait_time_;
  std::unordered_map<TenantId, std::uint64_t> admitted_;
};

}  // namespace blobcr::net
