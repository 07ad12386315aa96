// The admission primitive behind every gate of the admission plane
// (qos/admission.h) and every shared server queue (net::ServiceQueue):
//
//  * TenantRegistry — the repository-wide identity and weight table. Jobs
//    register once (Cloud::register_tenant) and tag their repository
//    requests with the returned net::TenantId.
//  * FairGate — a counting gate that keeps one FIFO of waiters per tenant.
//    Over a registry (`fair_over`), a freed slot goes to the waiting tenant
//    with the least normalized service (cost / weight), ties to the earlier
//    arrival: start-time fair order, so a tenant with one small request
//    overtakes a tenant with a deep backlog while long-run throughput
//    converges to the weight ratio. Without a registry, a freed slot goes
//    to the earliest arrival: a plain bounded FIFO at identical capacity,
//    the "QoS off" baseline. Zero slots disable the gate (every enter
//    admits at once), the single-tenant default. A hand-off looks only at
//    the head waiter of each tenant that has one.
//
// Kill-safety lives in the queued request, a sim::Parked Waiter: one killed
// in its tenant's FIFO unlinks itself; one killed between hand-off and
// resume refunds its charge and hands its slot onward. An admitted holder
// releases through the RAII Permit as its frame unwinds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/tenant.h"
#include "sim/sim.h"

namespace blobcr::qos {

class TenantRegistry {
 public:
  struct Info {
    std::string name;
    double weight = 1.0;
  };

  /// Registers a tenant and returns its id (1-based; 0 stays the default
  /// tenant with weight 1). Weights are relative shares; non-positive
  /// weights are clamped to 1.
  net::TenantId register_tenant(std::string name, double weight = 1.0) {
    infos_.push_back(Info{std::move(name), weight > 0 ? weight : 1.0});
    return static_cast<net::TenantId>(infos_.size());
  }

  double weight(net::TenantId t) const {
    return (t == net::kDefaultTenant || t > infos_.size())
               ? 1.0
               : infos_[t - 1].weight;
  }
  const std::string& name(net::TenantId t) const {
    static const std::string kDefault = "default";
    return (t == net::kDefaultTenant || t > infos_.size())
               ? kDefault
               : infos_[t - 1].name;
  }
  std::size_t size() const { return infos_.size(); }

 private:
  std::vector<Info> infos_;
};

class FairGate {
 public:
  /// `slots` == 0 disables the gate (unbounded admission). `fair_over` ==
  /// nullptr admits in arrival order; a registry admits weighted-fair over
  /// its tenants' weights.
  FairGate(sim::Simulation& sim, std::size_t slots,
           const TenantRegistry* fair_over)
      : sim_(&sim), slots_(slots), fair_over_(fair_over) {}
  FairGate(const FairGate&) = delete;
  FairGate& operator=(const FairGate&) = delete;

  /// RAII admission slot, released as its holder's frame unwinds. A
  /// default-constructed (or moved-from) permit owns nothing — enter() on a
  /// disabled gate returns such a permit.
  class Permit {
   public:
    Permit() = default;
    explicit Permit(FairGate* gate) : gate_(gate) {}
    Permit(Permit&& o) noexcept : gate_(std::exchange(o.gate_, nullptr)) {}
    Permit& operator=(Permit&&) = delete;
    ~Permit() {
      if (gate_ != nullptr) gate_->release_slot();
    }

   private:
    FairGate* gate_ = nullptr;
  };

  /// Blocks until a slot is granted and returns the holding permit. `cost`
  /// is the request's service demand in arbitrary units (seconds for
  /// manager requests, bytes for commits) — only ratios between requests
  /// matter for the fair order.
  sim::Task<Permit> enter(net::TenantId tenant, double cost) {
    if (slots_ == 0) co_return Permit();  // gate disabled
    Tenant& t = tenants_.try_emplace(tenant, tenant).first->second;
    if (in_use_ < slots_ && pending_ == 0) {
      ++in_use_;
      charge(t, cost);
      ++t.admitted;
      co_return Permit(this);
    }
    // Start-time clamp: a tenant going idle must not bank credit — when it
    // becomes active again its service starts at the gate's virtual clock,
    // not at whatever it had consumed long ago.
    if (t.queue.empty()) {
      t.service = std::max(t.service, vclock_);
      active_.push_back(&t);
    }
    const sim::Time enqueued = sim_->now();
    co_await Waiter(*this, t, cost, next_seq_++);
    t.wait += sim_->now() - enqueued;
    ++t.admitted;
    co_return Permit(this);
  }

  std::size_t pending() const { return pending_; }
  std::size_t in_use() const { return in_use_; }

  /// Cumulative time `tenant`'s requests spent queued at this gate.
  sim::Duration wait_time(net::TenantId tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.wait;
  }
  std::uint64_t admitted(net::TenantId tenant) const {
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.admitted;
  }

 private:
  struct Tenant;

  /// A queued request, parked in its tenant's FIFO until release_slot()
  /// hands it a slot. The tenant map never erases, so `t` stays valid while
  /// other tenants join it.
  struct Waiter : sim::Parked {
    Waiter(FairGate& gate, Tenant& t, double cost, std::uint64_t seq)
        : gate(&gate), t(&t), cost(cost), seq(seq) {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      park(*gate->sim_, h);
      t->queue.push_back(this);
      ++gate->pending_;
    }
    void await_resume() const noexcept {}

    FairGate* gate;
    Tenant* t;
    double cost;
    std::uint64_t seq;   // arrival order across all tenants
    double charged = 0;  // normalized service charged at hand-off

   private:
    void unlink() noexcept override {
      t->queue.erase(std::find(t->queue.begin(), t->queue.end(), this));
      --gate->pending_;
      if (t->queue.empty()) std::erase(gate->active_, t);
    }
    /// Killed between hand-off and resume: the request never ran, so refund
    /// its charge and hand the slot onward instead of leaking it.
    void abandon() noexcept override {
      t->service -= charged;
      gate->release_slot();
    }
  };

  struct Tenant {
    explicit Tenant(net::TenantId id) : id(id) {}
    net::TenantId id;
    double service = 0;  // normalized service (cost / weight) admitted
    std::deque<Waiter*> queue;
    sim::Duration wait = 0;
    std::uint64_t admitted = 0;
  };

  /// Charges an admitted request and returns its normalized cost; the
  /// gate's virtual clock becomes the request's virtual start time.
  double charge(Tenant& t, double cost) {
    const double normalized =
        cost / (fair_over_ != nullptr ? fair_over_->weight(t.id) : 1.0);
    t.service = std::max(t.service, vclock_);
    vclock_ = t.service;
    t.service += normalized;
    return normalized;
  }

  /// Over a registry: less normalized service first, then earlier arrival.
  /// Without one: earlier arrival.
  bool goes_before(const Tenant& a, const Tenant& b) const {
    if (fair_over_ != nullptr && a.service != b.service) {
      return a.service < b.service;
    }
    return a.queue.front()->seq < b.queue.front()->seq;
  }

  void release_slot() {
    if (pending_ == 0) {
      --in_use_;
      return;
    }
    // The slot stays in use and passes to the head waiter of the tenant
    // that goes next.
    const auto next =
        std::min_element(active_.begin(), active_.end(),
                         [this](const Tenant* a, const Tenant* b) {
                           return goes_before(*a, *b);
                         });
    Tenant& t = **next;
    Waiter* w = t.queue.front();
    t.queue.pop_front();
    --pending_;
    if (t.queue.empty()) {
      *next = active_.back();
      active_.pop_back();
    }
    w->charged = charge(t, w->cost);
    w->wake();
  }

  sim::Simulation* sim_;
  std::size_t slots_;
  const TenantRegistry* fair_over_;
  std::size_t in_use_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t next_seq_ = 0;
  double vclock_ = 0.0;
  std::unordered_map<net::TenantId, Tenant> tenants_;
  /// The tenants with a non-empty queue, in no particular order.
  std::vector<Tenant*> active_;
};

}  // namespace blobcr::qos
