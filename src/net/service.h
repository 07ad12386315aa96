// ServiceQueue: models a server daemon that handles requests with a fixed
// CPU cost and bounded concurrency (1 worker = fully serialized, the PVFS
// metadata-server case). Also provides an RPC convenience that combines
// request transfer, server processing and response transfer.
//
// Multi-tenant repositories can switch a queue to weighted-fair admission
// (enable_fair): requests tagged with a TenantId are then dispatched in
// start-time-fair order instead of FIFO, so one tenant's backlog cannot
// starve another tenant's single request. Untagged requests run as the
// default tenant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/fabric.h"
#include "net/qos.h"
#include "sim/sim.h"

namespace blobcr::net {

class ServiceQueue {
 public:
  ServiceQueue(sim::Simulation& sim, std::string name,
               sim::Duration per_request_cost, std::int64_t workers = 1)
      : name_(std::move(name)),
        per_request_cost_(per_request_cost),
        sim_(&sim),
        worker_count_(workers),
        workers_(sim, workers) {}

  /// Switches this queue to weighted-fair dispatch over `registry`'s tenant
  /// weights (same worker capacity; only the ordering changes). Call before
  /// traffic starts — waiters queued under the old discipline stay there.
  void enable_fair(const TenantRegistry* registry) {
    if (fair_ == nullptr) {
      fair_ = std::make_unique<FairGate>(
          *sim_, static_cast<std::size_t>(worker_count_), registry,
          /*fair=*/true);
    }
  }

  /// Occupies a worker for the request cost.
  sim::Task<> process() { return process(kDefaultTenant, per_request_cost_); }
  sim::Task<> process(TenantId tenant) {
    return process(tenant, per_request_cost_);
  }

  sim::Task<> process(TenantId tenant, sim::Duration cost) {
    if (fair_ != nullptr) {
      FairGate::Permit permit =
          co_await fair_->enter(tenant, sim::to_seconds(cost));
      (void)permit;
      ++requests_;
      co_await sim_->delay(cost);
      co_return;  // permit releases (RAII) — also on kill-unwind
    }
    co_await workers_.acquire();
    // RAII: a client process fail-stopped mid-request (crash harness, FT
    // injection) must return the worker, or a 1-worker service — the
    // version and provider managers — is wedged for every later caller.
    struct Permit {
      sim::Semaphore* workers;
      ~Permit() { workers->release(); }
    } permit{&workers_};
    ++requests_;
    co_await sim_->delay(cost);
  }

  std::uint64_t requests_served() const { return requests_; }
  /// Per-tenant cumulative admission wait (zero unless fair mode is on).
  sim::Duration tenant_wait(TenantId tenant) const {
    return fair_ != nullptr ? fair_->wait_time(tenant) : 0;
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  sim::Duration per_request_cost_;
  sim::Simulation* sim_;
  std::int64_t worker_count_;
  sim::Semaphore workers_;
  std::unique_ptr<FairGate> fair_;
  std::uint64_t requests_ = 0;
};

/// Round-trip RPC: request payload to the server, serialized processing,
/// response payload back.
inline sim::Task<> rpc(Fabric& fabric, ServiceQueue& service, NodeId client,
                       NodeId server, std::uint64_t request_bytes,
                       std::uint64_t response_bytes) {
  co_await fabric.transfer(client, server, request_bytes);
  co_await service.process();
  co_await fabric.transfer(server, client, response_bytes);
}

}  // namespace blobcr::net
