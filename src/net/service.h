// ServiceQueue: models a server daemon that handles requests with a fixed
// CPU cost one at a time (the PVFS metadata-server case, and BlobSeer's
// version and provider managers). Also provides an RPC convenience that
// combines request transfer, server processing and response transfer.
//
// The single worker is one slot of a qos::FairGate. Without a registry the
// queue serves requests in arrival order; over a registry (`fair_over`, see
// qos::AdmissionPlane::fair_over) requests tagged with a TenantId are served
// in start-time-fair order, so one tenant's backlog cannot starve another
// tenant's single request. Untagged requests run as the default tenant.
// Either way the queue reports each tenant's queueing time.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "net/fabric.h"
#include "qos/fair_gate.h"
#include "sim/sim.h"

namespace blobcr::net {

class ServiceQueue {
 public:
  ServiceQueue(sim::Simulation& sim, std::string name,
               sim::Duration per_request_cost,
               const qos::TenantRegistry* fair_over = nullptr)
      : name_(std::move(name)),
        per_request_cost_(per_request_cost),
        sim_(&sim),
        worker_(sim, 1, fair_over) {}

  /// Occupies the worker for the request cost.
  sim::Task<> process() { return process(kDefaultTenant, per_request_cost_); }
  sim::Task<> process(TenantId tenant) {
    return process(tenant, per_request_cost_);
  }

  sim::Task<> process(TenantId tenant, sim::Duration cost) {
    // RAII: a client process fail-stopped mid-request (crash harness, FT
    // injection) returns the worker as its frame unwinds, or the version
    // and provider managers would be wedged for every later caller.
    qos::FairGate::Permit permit =
        co_await worker_.enter(tenant, sim::to_seconds(cost));
    (void)permit;
    ++requests_;
    co_await sim_->delay(cost);
  }

  std::uint64_t requests_served() const { return requests_; }
  /// Per-tenant cumulative queueing time before the worker took a request.
  sim::Duration tenant_wait(TenantId tenant) const {
    return worker_.wait_time(tenant);
  }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  sim::Duration per_request_cost_;
  sim::Simulation* sim_;
  qos::FairGate worker_;
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
