// CheckpointProxy: the per-node service that accepts checkpoint requests
// from VM instances hosted on the same compute node (paper §3.2). It
// authenticates the caller, suspends the VM, awaits the backend's disk
// snapshot, resumes the VM whether or not the snapshot succeeded (§3.3) and
// reports the result. One proxy serves all three backends: BlobCR's
// CLONE/COMMIT ioctls, the qcow2-disk container copy and qcow2-full's
// savevm + copy differ only in the snapshot they hand to serve(). The proxy
// is deliberately not reachable from other nodes.
#pragma once

#include <exception>
#include <functional>
#include <stdexcept>

#include "core/mirror_device.h"
#include "net/fabric.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::core {

class CheckpointProxy {
 public:
  struct Result {
    blob::BlobId image = 0;
    blob::VersionId version = 0;
    std::uint64_t payload_bytes = 0;  // chunk payload committed
    sim::Duration vm_downtime = 0;
  };

  /// Time the proxy spends authenticating a caller before pausing its VM.
  static constexpr sim::Duration kAuthCost = 500 * sim::kMicrosecond;

  CheckpointProxy(sim::Simulation& sim, net::Fabric& fabric, net::NodeId node)
      : sim_(&sim), fabric_(&fabric), node_(node) {}

  net::NodeId node() const { return node_; }

  /// Serves one checkpoint request for a VM hosted on this node: pauses it,
  /// awaits `snapshot`, resumes it on success and on failure, and returns
  /// the pause. `guest_request`: the guest asked over the node-local
  /// (loopback) connection, which costs one message each way; a
  /// host-driven snapshot (qcow2-full's savevm) pays neither. A failed
  /// snapshot rethrows after the VM resumed. Callers' closures capture by
  /// reference only: GCC 12 destroys a lambda temporary whose captures have
  /// destructors a second time when it is built inside a co_await
  /// expression.
  sim::Task<sim::Duration> serve(vm::VmInstance& vm, bool guest_request,
                                 std::function<sim::Task<>()> snapshot) {
    if (vm.host() != node_)
      throw std::runtime_error("proxy rejects non-local VM");
    if (guest_request) co_await fabric_->message(node_, node_);
    co_await sim_->delay(kAuthCost);

    const sim::Time pause_start = sim_->now();
    vm.pause();
    std::exception_ptr error;
    try {
      co_await snapshot();
    } catch (...) {
      error = std::current_exception();
    }
    vm.resume();
    const sim::Duration downtime = sim_->now() - pause_start;
    ++requests_;
    if (error) std::rethrow_exception(error);
    // Result notification back to the guest.
    if (guest_request) co_await fabric_->message(node_, node_);
    co_return downtime;
  }

  /// A guest's BlobCR checkpoint request: CLONE then COMMIT on its
  /// mirroring module.
  sim::Task<Result> request_checkpoint(vm::VmInstance& vm,
                                       MirrorDevice& dev) {
    Result result;
    result.vm_downtime =
        co_await serve(vm, true, [&result, &dev]() -> sim::Task<> {
          result.image = co_await dev.ioctl_clone();
          result.version = co_await dev.ioctl_commit();
          result.payload_bytes = dev.last_commit_payload();
        });
    co_return result;
  }

  std::uint64_t requests_served() const { return requests_; }

 private:
  sim::Simulation* sim_;
  net::Fabric* fabric_;
  net::NodeId node_;
  std::uint64_t requests_ = 0;
};

}  // namespace blobcr::core
