// qos::AdmissionPlane — the repository's single QoS choke point.
//
// Every path that touches the shared repository is admitted here under its
// tenant and classified into one of three gates:
//
//            +---------------------- AdmissionPlane ---------------------+
//            |  TenantRegistry (identities + weights)                    |
//            |                                                           |
//   commits  |  [Commit gate]          one slot per in-flight commit /   |
//   drains --+-> FairGate              async drain, reduction→publish    |
//            |                                                           |
//   stores   |  [ProviderIo gate]      one slot per chunk store/fetch    |
//   fetches -+-> FairGate              at the data-provider pool — QoS   |
//   repairs  |                         holds when disk is the bottleneck |
//            |                                                           |
//   restart  |  [RestartPrefetch gate] one slot per prefetch worker —    |
//   prefetch-+-> FairGate              a mass rollback queues through    |
//            |                         the same plane as live commits    |
//            +-----------------------------------------------------------+
//
// The gates share one TenantRegistry, so a tenant's weight means the same
// thing on the commit path, the disk path and the restart path. Permits are
// RAII (qos::FairGate::Permit) and kill-safe: a coroutine killed while
// queued unlinks, one killed while holding releases as its frame unwinds.
// The repository's version- and provider-manager queues admit in the same
// order: fair_over() is the one place that maps Config::enabled to it.
//
// All knobs live in one validated qos::Config (the fairness switch and the
// per-gate slot counts); the restart-prefetch byte budget is the constant
// kRestartPrefetchBudget.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/units.h"
#include "net/tenant.h"
#include "qos/fair_gate.h"
#include "sim/sim.h"

namespace blobcr::qos {

/// The admission classes the plane arbitrates. Every repository request
/// belongs to exactly one.
enum class GateClass {
  Commit,           // synchronous commits and async flush drains
  ProviderIo,       // chunk store/fetch at the data-provider pool
  RestartPrefetch,  // restart-scheduler prefetch workers
};

inline const char* gate_class_name(GateClass g) {
  switch (g) {
    case GateClass::Commit: return "commit";
    case GateClass::ProviderIo: return "provider-io";
    case GateClass::RestartPrefetch: return "restart-prefetch";
  }
  return "?";
}

/// All QoS knobs for one repository, validated as a unit.
struct Config {
  /// Weighted-fair ordering at every gate and shared service queue.
  /// Off = FIFO everywhere at identical capacity (the ablation baseline).
  bool enabled = false;
  /// Concurrently admitted commits/drains (each holds one slot from
  /// reduction through publish). 0 = gate disabled (unbounded).
  std::size_t commit_slots = 0;
  /// Concurrent chunk stores/fetches admitted at the data-provider pool.
  /// 0 = gate disabled. Sized like a disk queue depth, not a commit count.
  std::size_t provider_slots = 0;
  /// Concurrent restart-prefetch workers admitted repository-wide.
  /// 0 = gate disabled (each device still bounds its own local streams).
  std::size_t prefetch_slots = 0;

  /// Rejects incoherent setups: QoS "enabled" with every gate unbounded
  /// arbitrates nothing — the fair ordering would silently never engage.
  void validate() const {
    if (enabled && commit_slots == 0 && provider_slots == 0 &&
        prefetch_slots == 0) {
      throw std::invalid_argument(
          "qos::Config: enabled with zero slots on every gate — fairness "
          "cannot engage; set commit_slots/provider_slots/prefetch_slots "
          "or disable qos");
    }
  }
};

/// Repository bytes the restart scheduler may prefetch per instance.
inline constexpr std::uint64_t kRestartPrefetchBudget = 64 * common::kMB;

/// Repository-scoped admission plane: owns the tenant table and one gate
/// per admission class. Lives in BlobStore, declared before the
/// providers/managers whose requests it arbitrates.
class AdmissionPlane {
 public:
  AdmissionPlane(sim::Simulation& sim, const Config& cfg)
      : cfg_(cfg),
        commit_(sim, cfg.commit_slots, fair_over()),
        provider_(sim, cfg.provider_slots, fair_over()),
        prefetch_(sim, cfg.prefetch_slots, fair_over()) {
    cfg.validate();
  }
  AdmissionPlane(const AdmissionPlane&) = delete;
  AdmissionPlane& operator=(const AdmissionPlane&) = delete;

  const Config& config() const { return cfg_; }

  TenantRegistry& tenants() { return tenants_; }
  const TenantRegistry& tenants() const { return tenants_; }

  /// The order of every gate and shared server queue of this repository:
  /// weighted-fair over the tenant table with QoS on, arrival order
  /// (nullptr) with it off.
  const TenantRegistry* fair_over() const {
    return cfg_.enabled ? &tenants_ : nullptr;
  }

  FairGate& gate(GateClass g) {
    switch (g) {
      case GateClass::Commit: return commit_;
      case GateClass::ProviderIo: return provider_;
      case GateClass::RestartPrefetch: return prefetch_;
    }
    return provider_;
  }
  const FairGate& gate(GateClass g) const {
    return const_cast<AdmissionPlane*>(this)->gate(g);
  }

  /// Admits `tenant` at `g`'s gate; `cost` is the request's service
  /// demand (bytes). The returned permit is the RAII slot.
  sim::Task<FairGate::Permit> admit(GateClass g, net::TenantId tenant,
                                    double cost) {
    return gate(g).enter(tenant, cost);
  }

  /// Cumulative queueing time of `tenant` at `g`'s gate.
  sim::Duration wait(GateClass g, net::TenantId tenant) const {
    return gate(g).wait_time(tenant);
  }

 private:
  Config cfg_;
  /// Declared before the gates: they hold a registry pointer.
  TenantRegistry tenants_;
  FairGate commit_;
  FairGate provider_;
  FairGate prefetch_;
};

}  // namespace blobcr::qos
