// QoS tests for the admission primitive (qos/fair_gate.h) and the
// repository admission plane (qos/admission.h): qos::FairGate and
// net::ServiceQueue admit in exactly the order of the list-scan gate and the
// semaphore queue they replaced, over seeded scripts with kills; the unified
// qos::Config validates as a unit; the provider-io gate holds weighted
// fairness when the data-provider pool (not the commit gate) is the
// bottleneck; a tenant's commit_wait is read from the commit gate and both
// manager queues; admission is kill-safe at every gate class; a
// mass-rollback storm and live commits share the plane without starving
// each other in either direction; a mirror's queued prefetch ranges hold no
// restart-prefetch permit; and restart-prefetch workers killed at deployment
// teardown release their admission permits (the leak that would wedge the
// next restart).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/multi_job.h"
#include "blob/client.h"
#include "blob/data_provider.h"
#include "blob/store.h"
#include "common/rng.h"
#include "common/strutil.h"
#include "core/blobcr.h"
#include "cr/session.h"
#include "net/service.h"
#include "qos/admission.h"
#include "qos/fair_gate.h"
#include "sim/sim.h"

namespace blobcr {
namespace {

using common::Buffer;
using core::Backend;
using core::Cloud;
using core::CloudConfig;
using core::Deployment;
using sim::Task;

// ---------------------------------------------------------------------------
// qos::Config — one validated knob set.
// ---------------------------------------------------------------------------

TEST(QosConfigTest, ValidateRejectsFairnessWithEveryGateUnbounded) {
  qos::Config cfg;
  EXPECT_NO_THROW(cfg.validate());  // disabled + unbounded is the default
  cfg.enabled = true;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.commit_slots = 2;
  EXPECT_NO_THROW(cfg.validate());
  cfg.commit_slots = 0;
  cfg.prefetch_slots = 1;
  EXPECT_NO_THROW(cfg.validate());

  // The plane itself refuses to be built around an incoherent config...
  sim::Simulation sim;
  qos::Config bad;
  bad.enabled = true;
  EXPECT_THROW(qos::AdmissionPlane(sim, bad), std::invalid_argument);

  // ...and so does a Cloud, at construction rather than mid-run.
  CloudConfig ccfg;
  ccfg.compute_nodes = 4;
  ccfg.backend = Backend::BlobCR;
  ccfg.qos.enabled = true;
  EXPECT_THROW(Cloud cloud(ccfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// qos::FairGate: a small tenant's single request overtakes a bulk tenant's
// backlog at a fair gate; at a FIFO gate it waits out the backlog. Killed
// waiters and holders give their slots back.
// ---------------------------------------------------------------------------

Task<> hold_slot(sim::Simulation* sim, qos::FairGate* gate, net::TenantId t,
                 sim::Duration pre_delay, sim::Duration hold_time,
                 sim::Time* admitted) {
  if (pre_delay > 0) co_await sim->delay(pre_delay);
  qos::FairGate::Permit permit = co_await gate->enter(t, 1.0);
  (void)permit;
  if (admitted != nullptr) *admitted = sim->now();
  if (hold_time > 0) co_await sim->delay(hold_time);
}

Task<> kill_two(sim::Simulation* sim, sim::Duration d, sim::ProcessPtr a,
                sim::ProcessPtr b) {
  co_await sim->delay(d);
  a->kill();
  b->kill();
}

TEST(FairGateTest, SmallTenantOvertakesBulkBacklogUnderFairness) {
  for (const bool fair : {true, false}) {
    sim::Simulation sim;
    qos::TenantRegistry reg;
    const net::TenantId bulk = reg.register_tenant("bulk");
    const net::TenantId small = reg.register_tenant("small");
    qos::FairGate gate(sim, /*slots=*/1, fair ? &reg : nullptr);

    sim::Time small_admitted = 0;
    for (int i = 0; i < 4; ++i) {
      sim.spawn("bulk",
                hold_slot(&sim, &gate, bulk, 0, 1 * sim::kSecond, nullptr));
    }
    sim.spawn("small", hold_slot(&sim, &gate, small, 100 * sim::kMillisecond,
                                 1 * sim::kSecond, &small_admitted));
    sim.run();

    if (fair) {
      // Admitted as soon as the first bulk hold releases (1s), ahead of the
      // remaining backlog: the small tenant's normalized usage is zero.
      EXPECT_EQ(small_admitted, 1 * sim::kSecond);
      EXPECT_LT(gate.wait_time(small), gate.wait_time(bulk));
    } else {
      // FIFO: behind all four bulk holds.
      EXPECT_EQ(small_admitted, 4 * sim::kSecond);
    }
    EXPECT_EQ(gate.admitted(small), 1u);
    EXPECT_EQ(gate.admitted(bulk), 4u);
  }
}

// A killed waiter unlinks; a killed holder's permit releases; the gate keeps
// dispatching afterwards (the crash-consistency property the commit path
// relies on when a drain dies while queued at the gate).
TEST(FairGateTest, KilledWaiterAndHolderReleaseTheirSlots) {
  sim::Simulation sim;
  qos::TenantRegistry reg;
  const net::TenantId t1 = reg.register_tenant("t1");
  const net::TenantId t2 = reg.register_tenant("t2");
  qos::FairGate gate(sim, /*slots=*/1, &reg);

  sim::Time survivor_admitted = 0;
  // Holder admits immediately and would hold for 10s; the waiter queues
  // behind it; the survivor queues last. At t=1s the killer kills the
  // queued waiter (must unlink) and the holder (its permit must release),
  // which must hand the slot to the survivor.
  auto holder =
      sim.spawn("holder", hold_slot(&sim, &gate, t1, 0, 10 * sim::kSecond,
                                    nullptr));
  auto waiter =
      sim.spawn("waiter", hold_slot(&sim, &gate, t1, 100 * sim::kMillisecond,
                                    10 * sim::kSecond, nullptr));
  sim.spawn("survivor",
            hold_slot(&sim, &gate, t2, 200 * sim::kMillisecond, 0,
                      &survivor_admitted));
  sim.spawn("killer", kill_two(&sim, 1 * sim::kSecond, waiter, holder));
  sim.run();

  EXPECT_EQ(survivor_admitted, 1 * sim::kSecond);
  EXPECT_EQ(gate.in_use(), 0u);
  EXPECT_EQ(gate.pending(), 0u);
}

// ---------------------------------------------------------------------------
// The admission order is the one the gate had before it kept a FIFO per
// tenant. ReferenceGate is that gate: one std::list of every waiter, scanned
// at each hand-off, with a `fair` switch. ReferenceQueue is net::ServiceQueue
// before it had one discipline: a sim::Semaphore worker, swapped for a
// ReferenceGate when fair. Seeded scripts replay through both sides and every
// admission time and per-tenant counter must match.
// ---------------------------------------------------------------------------

class ReferenceGate {
 public:
  ReferenceGate(sim::Simulation& sim, std::size_t slots,
                const qos::TenantRegistry* registry, bool fair)
      : sim_(&sim), slots_(slots), registry_(registry), fair_(fair) {}
  ReferenceGate(const ReferenceGate&) = delete;
  ReferenceGate& operator=(const ReferenceGate&) = delete;

  class Permit {
   public:
    Permit() = default;
    explicit Permit(ReferenceGate* gate) : gate_(gate) {}
    Permit(Permit&& o) noexcept : gate_(std::exchange(o.gate_, nullptr)) {}
    Permit& operator=(Permit&&) = delete;
    Permit(const Permit&) = delete;
    Permit& operator=(const Permit&) = delete;
    ~Permit() {
      if (gate_ != nullptr) gate_->release_slot();
    }

   private:
    ReferenceGate* gate_ = nullptr;
  };

  sim::Task<Permit> enter(net::TenantId tenant, double cost) {
    if (slots_ == 0) co_return Permit();
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
    struct Unlink {
      ReferenceGate* gate;
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

  std::size_t pending() const { return pending_.size(); }
  std::size_t in_use() const { return in_use_; }
  sim::Duration wait_time(net::TenantId tenant) const {
    const auto it = wait_time_.find(tenant);
    return it == wait_time_.end() ? 0 : it->second;
  }
  std::uint64_t admitted(net::TenantId tenant) const {
    const auto it = admitted_.find(tenant);
    return it == admitted_.end() ? 0 : it->second;
  }

 private:
  struct Waiter {
    Waiter(sim::Simulation& sim, net::TenantId tenant, double cost)
        : tenant(tenant), cost(cost), wq(sim) {}
    net::TenantId tenant;
    double cost;
    sim::Time enqueued = 0;
    double charged = 0;
    bool granted = false;
    bool consumed = false;
    sim::WaitQueue wq;
  };

  double weight(net::TenantId t) const {
    return registry_ != nullptr ? registry_->weight(t) : 1.0;
  }

  void on_enqueue(net::TenantId t) {
    for (const Waiter* w : pending_) {
      if (w->tenant == t) return;
    }
    auto& used = used_[t];
    used = std::max(used, vclock_);
  }

  void charge(net::TenantId t, double cost) {
    auto& used = used_[t];
    used = std::max(used, vclock_);
    vclock_ = used;
    used += cost / weight(t);
  }

  void release_slot() {
    if (pending_.empty()) {
      --in_use_;
      return;
    }
    auto next = pending_.begin();
    if (fair_) {
      for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
        if (usage((*it)->tenant) < usage((*next)->tenant)) next = it;
      }
    }
    Waiter* w = *next;
    pending_.erase(next);
    charge(w->tenant, w->cost);
    w->charged = w->cost / weight(w->tenant);
    w->granted = true;
    w->wq.notify_one();
  }

  double usage(net::TenantId t) const {
    const auto it = used_.find(t);
    return it == used_.end() ? 0.0 : it->second;
  }

  sim::Simulation* sim_;
  std::size_t slots_;
  const qos::TenantRegistry* registry_;
  bool fair_;
  std::size_t in_use_ = 0;
  std::list<Waiter*> pending_;
  std::unordered_map<net::TenantId, double> used_;
  double vclock_ = 0.0;
  std::unordered_map<net::TenantId, sim::Duration> wait_time_;
  std::unordered_map<net::TenantId, std::uint64_t> admitted_;
};

/// The one-worker queue before it had one discipline. Its FIFO path keeps
/// a per-tenant wait clock the old queue did not have, so that the waits
/// the new queue reports in FIFO mode have something to match.
class ReferenceQueue {
 public:
  ReferenceQueue(sim::Simulation& sim, const qos::TenantRegistry* fair_over)
      : sim_(&sim), worker_(sim, 1) {
    if (fair_over != nullptr) {
      fair_ = std::make_unique<ReferenceGate>(sim, 1, fair_over, true);
    }
  }

  sim::Task<> process(net::TenantId tenant, sim::Duration cost) {
    if (fair_ != nullptr) {
      ReferenceGate::Permit permit =
          co_await fair_->enter(tenant, sim::to_seconds(cost));
      (void)permit;
      ++requests_;
      co_await sim_->delay(cost);
      co_return;
    }
    const sim::Time start = sim_->now();
    co_await worker_.acquire();
    struct Permit {
      sim::Semaphore* worker;
      ~Permit() { worker->release(); }
    } permit{&worker_};
    fifo_wait_[tenant] += sim_->now() - start;
    ++requests_;
    co_await sim_->delay(cost);
  }

  std::uint64_t requests_served() const { return requests_; }
  sim::Duration tenant_wait(net::TenantId tenant) const {
    if (fair_ != nullptr) return fair_->wait_time(tenant);
    const auto it = fifo_wait_.find(tenant);
    return it == fifo_wait_.end() ? 0 : it->second;
  }

 private:
  sim::Simulation* sim_;
  sim::Semaphore worker_;
  std::unique_ptr<ReferenceGate> fair_;
  std::unordered_map<net::TenantId, sim::Duration> fifo_wait_;
  std::uint64_t requests_ = 0;
};

/// One seeded script: requests sorted by arrival, kill events, and the
/// instant a late tenant registers (its requests all arrive after it).
struct Script {
  struct Request {
    sim::Time arrival;
    net::TenantId tenant;
    double cost;         // gate cost; ServiceQueue replays use `hold`
    sim::Duration hold;  // time held after admission (0: release at once)
  };
  enum class Kill {
    Waiter,              // one queued request
    Holder,              // one admitted request
    HolderThenFirst,     // a holder, then the earliest queued request
    FirstThenHolder,     // the earliest queued request, then a holder
    HolderAndRandom,     // a holder and up to three queued, shuffled
  };
  struct KillEvent {
    sim::Time at;
    Kill kind;
    std::uint64_t pick;  // chooses among the candidates at that instant
  };
  std::vector<Request> requests;
  std::vector<KillEvent> kills;
  sim::Time late_registration = 0;
};

// Tenant ids: the registry holds weights 1, 1, 2 and 4 (ids 1-4) from the
// start; kLateTenant (weight 2) registers mid-script; the default tenant
// (weight 1) sends a few requests too.
constexpr net::TenantId kLateTenant = 5;
constexpr double kWeights[] = {1, 1, 2, 4};

Script make_script(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  Script s;
  sim::Time t = 0;
  s.late_registration = static_cast<sim::Time>(n / 3) * sim::kMillisecond;
  for (std::size_t i = 0; i < n; ++i) {
    // Four in ten arrive in the same instant as the previous request.
    if (!rng.chance(0.4)) {
      t += static_cast<sim::Time>(rng.uniform_range(1, 3000)) *
           sim::kMicrosecond;
    }
    net::TenantId tenant = static_cast<net::TenantId>(rng.uniform(5));
    if (t > s.late_registration && rng.chance(0.25)) tenant = kLateTenant;
    // A tenant goes idle for a while and comes back: the start-time clamp.
    if (tenant == 4 && (t / (40 * sim::kMillisecond)) % 2 == 1) tenant = 3;
    const double costs[] = {1, 2, 4};
    const sim::Duration holds[] = {0, 500, 1000, 2000, 3000};
    s.requests.push_back(Script::Request{
        t, tenant, costs[rng.uniform(3)],
        holds[rng.uniform(5)] * sim::kMicrosecond});
  }
  for (sim::Time k = 5 * sim::kMillisecond; k < t;
       k += static_cast<sim::Time>(rng.uniform_range(2, 12)) *
            sim::kMillisecond) {
    s.kills.push_back(Script::KillEvent{
        k, static_cast<Script::Kill>(rng.uniform(5)), rng.next_u64()});
  }
  return s;
}

/// Everything the comparison reads off one replay.
struct Outcome {
  std::vector<sim::Time> done;  // admission (gate) or completion (queue)
  std::vector<sim::Duration> waits;
  std::vector<std::uint64_t> counts;  // admitted per tenant, or served
  std::size_t in_use = 0;
  std::size_t pending = 0;
  std::size_t killed = 0;
  std::size_t queued = 0;  // requests that were not admitted on arrival
};

enum class Phase { Before, Entered, Holding, Finished, Killed };

/// Gates hand out permits; queues serve a request and return.
template <class Side>
constexpr bool kIsGate = std::is_same_v<Side, qos::FairGate> ||
                         std::is_same_v<Side, ReferenceGate>;

template <class Side>
struct Replay {
  sim::Simulation sim;
  qos::TenantRegistry registry;
  const Script* script;
  std::unique_ptr<Side> side;
  std::vector<Phase> phase;
  std::vector<sim::Time> done;
  std::vector<sim::ProcessPtr> procs;
  std::size_t queued = 0;
};

/// Request i's process: arrive, go through the side, hold, leave.
template <class Side>
Task<> replay_request(Replay<Side>* r, std::size_t i) {
  const Script::Request& q = r->script->requests[i];
  co_await r->sim.delay(q.arrival);
  r->phase[i] = Phase::Entered;
  if constexpr (kIsGate<Side>) {
    auto permit = co_await r->side->enter(q.tenant, q.cost);
    r->phase[i] = Phase::Holding;
    r->done[i] = r->sim.now();
    if (r->done[i] > q.arrival) ++r->queued;
    if (q.hold > 0) co_await r->sim.delay(q.hold);
  } else {
    const sim::Duration service = std::max<sim::Duration>(q.hold, 1);
    co_await r->side->process(q.tenant, service);
    r->done[i] = r->sim.now();
    if (r->done[i] > q.arrival + service) ++r->queued;
  }
  r->phase[i] = Phase::Finished;
}

/// Picks victims from what the replay shows at that instant — identical on
/// both sides as long as their behaviour is. A queue replay cannot see who
/// is in service: there the earliest entered request counts as the holder.
template <class Side>
Task<> replay_kill(Replay<Side>* r, const Script::KillEvent* k) {
  co_await r->sim.delay(k->at);
  std::vector<std::size_t> queued, holders;
  for (std::size_t i = 0; i < r->phase.size(); ++i) {
    if (r->phase[i] == Phase::Holding) holders.push_back(i);
    if (r->phase[i] == Phase::Entered) queued.push_back(i);
  }
  if constexpr (!kIsGate<Side>) {
    if (queued.empty()) co_return;
    holders.push_back(queued.front());
    queued.erase(queued.begin());
  }
  common::Rng rng(k->pick);
  std::vector<std::size_t> victims;
  const auto any_holder = [&] { return holders[rng.uniform(holders.size())]; };
  switch (k->kind) {
    case Script::Kill::Waiter:
      if (!queued.empty()) victims = {queued[rng.uniform(queued.size())]};
      break;
    case Script::Kill::Holder:
      if (!holders.empty()) victims = {any_holder()};
      break;
    case Script::Kill::HolderThenFirst:
      if (!holders.empty() && !queued.empty()) {
        victims = {any_holder(), queued.front()};
      }
      break;
    case Script::Kill::FirstThenHolder:
      if (!holders.empty() && !queued.empty()) {
        victims = {queued.front(), any_holder()};
      }
      break;
    case Script::Kill::HolderAndRandom:
      if (!holders.empty()) {
        victims = {any_holder()};
        for (std::uint64_t n = rng.uniform(4); n > 0 && !queued.empty(); --n) {
          const std::size_t at = rng.uniform(queued.size());
          victims.insert(victims.begin() + static_cast<std::ptrdiff_t>(
                                               rng.uniform(victims.size() + 1)),
                         queued[at]);
          queued.erase(queued.begin() + static_cast<std::ptrdiff_t>(at));
        }
      }
      break;
  }
  for (const std::size_t v : victims) {
    r->procs[v]->kill();
    r->phase[v] = Phase::Killed;
  }
}

template <class Side>
Task<> register_late(Replay<Side>* r) {
  co_await r->sim.delay(r->script->late_registration);
  const net::TenantId id = r->registry.register_tenant("late", 2);
  EXPECT_EQ(id, kLateTenant);
}

/// Replays `script` through a side built by `make(sim, registry)`.
template <class Side, class Make>
Outcome replay(const Script& script, Make make) {
  Replay<Side> r;
  r.script = &script;
  for (std::size_t t = 0; t < std::size(kWeights); ++t) {
    r.registry.register_tenant("t" + std::to_string(t + 1), kWeights[t]);
  }
  r.side = make(r.sim, r.registry);
  const std::size_t n = script.requests.size();
  r.phase.assign(n, Phase::Before);
  r.done.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    r.procs.push_back(r.sim.spawn("req", replay_request(&r, i)));
  }
  for (const Script::KillEvent& k : script.kills) {
    r.sim.spawn("kill", replay_kill(&r, &k));
  }
  r.sim.spawn("register", register_late(&r));
  r.sim.run();

  Outcome o;
  o.done = r.done;
  o.queued = r.queued;
  for (const Phase p : r.phase) o.killed += p == Phase::Killed ? 1 : 0;
  for (net::TenantId t = 0; t <= kLateTenant; ++t) {
    if constexpr (kIsGate<Side>) {
      o.waits.push_back(r.side->wait_time(t));
      o.counts.push_back(r.side->admitted(t));
    } else {
      o.waits.push_back(r.side->tenant_wait(t));
    }
  }
  if constexpr (kIsGate<Side>) {
    o.in_use = r.side->in_use();
    o.pending = r.side->pending();
  } else {
    o.counts.push_back(r.side->requests_served());
  }
  return o;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& where) {
  ASSERT_EQ(got.done.size(), want.done.size()) << where;
  for (std::size_t i = 0; i < want.done.size(); ++i) {
    ASSERT_EQ(got.done[i], want.done[i]) << where << " request " << i;
  }
  EXPECT_EQ(got.waits, want.waits) << where;
  EXPECT_EQ(got.counts, want.counts) << where;
  EXPECT_EQ(got.in_use, want.in_use) << where;
  EXPECT_EQ(got.pending, want.pending) << where;
  // The script exercised what it is meant to: queueing and kills.
  EXPECT_GE(want.queued, 30u) << where;
  EXPECT_GE(want.killed, 10u) << where;
}

constexpr std::size_t kScriptRequests = 320;

TEST(FairGateOrderTest, SeededScriptsMatchTheListScanGate) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Script script = make_script(seed, kScriptRequests);
    for (std::size_t slots = 1; slots <= 3; ++slots) {
      for (const bool fair : {true, false}) {
        const Outcome want = replay<ReferenceGate>(
            script, [&](sim::Simulation& sim, qos::TenantRegistry& reg) {
              return std::make_unique<ReferenceGate>(
                  sim, slots, fair ? &reg : nullptr, fair);
            });
        const Outcome got = replay<qos::FairGate>(
            script, [&](sim::Simulation& sim, qos::TenantRegistry& reg) {
              return std::make_unique<qos::FairGate>(sim, slots,
                                                     fair ? &reg : nullptr);
            });
        expect_same(got, want,
                    common::strf("seed %llu slots %zu %s",
                                 static_cast<unsigned long long>(seed), slots,
                                 fair ? "fair" : "fifo"));
      }
    }
  }
}

TEST(FairGateOrderTest, SeededScriptsMatchTheSemaphoreServiceQueue) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Script script = make_script(seed, kScriptRequests);
    for (const bool fair : {true, false}) {
      const Outcome want = replay<ReferenceQueue>(
          script, [&](sim::Simulation& sim, qos::TenantRegistry& reg) {
            return std::make_unique<ReferenceQueue>(sim,
                                                    fair ? &reg : nullptr);
          });
      const Outcome got = replay<net::ServiceQueue>(
          script, [&](sim::Simulation& sim, qos::TenantRegistry& reg) {
            return std::make_unique<net::ServiceQueue>(
                sim, "q", sim::kMillisecond, fair ? &reg : nullptr);
          });
      expect_same(got, want,
                  common::strf("seed %llu %s",
                               static_cast<unsigned long long>(seed),
                               fair ? "fair" : "fifo"));
    }
  }
}

// ---------------------------------------------------------------------------
// Provider-io gate: weighted fairness where the disk, not the commit gate,
// is the bottleneck. One provider, one admission slot, a slow disk: a small
// tenant's single store overtakes a bulk tenant's backlog in fair mode and
// waits it out in FIFO mode at identical capacity.
// ---------------------------------------------------------------------------

struct ProviderCluster {
  sim::Simulation sim;
  std::unique_ptr<net::Fabric> fabric;
  std::vector<std::unique_ptr<storage::Disk>> disks;
  std::unique_ptr<blob::BlobStore> store;
  net::NodeId client_node = 0;

  explicit ProviderCluster(bool fair) {
    net::Fabric::Config fcfg;
    fcfg.node_count = 6;
    fcfg.nic_bandwidth_bps = 1e9;
    fcfg.latency = 100 * sim::kMicrosecond;
    fabric = std::make_unique<net::Fabric>(sim, fcfg);

    blob::BlobStore::Config cfg;
    cfg.version_manager_node = 0;
    cfg.provider_manager_node = 1;
    cfg.metadata_nodes = {2, 3};
    storage::Disk::Config dcfg;
    dcfg.bandwidth_bps = 2e7;  // 20 MB/s: the disk is the bottleneck
    dcfg.position_cost = sim::kMillisecond;
    disks.push_back(std::make_unique<storage::Disk>(sim, dcfg));
    cfg.data_providers.push_back({4, disks.back().get(), 1});
    cfg.qos.enabled = fair;
    cfg.qos.provider_slots = 1;  // identical capacity in both modes
    store = std::make_unique<blob::BlobStore>(sim, *fabric, cfg);
    client_node = 5;
  }
};

Task<> store_one(ProviderCluster* tc, net::TenantId tenant, blob::ChunkId id,
                 std::uint64_t bytes, sim::Duration pre_delay,
                 sim::Time* done) {
  if (pre_delay > 0) co_await tc->sim.delay(pre_delay);
  blob::DataProvider* p = tc->store->provider_at(4);
  co_await p->store(tc->client_node, id, Buffer::pattern(bytes, id),
                    qos::IoContext{tenant, qos::GateClass::ProviderIo});
  if (done != nullptr) *done = tc->sim.now();
}

TEST(QosProviderGateTest, SmallStoreOvertakesBulkBacklogOnlyUnderFairness) {
  sim::Time small_done_fair = 0;
  sim::Time small_done_fifo = 0;
  for (const bool fair : {true, false}) {
    ProviderCluster tc(fair);
    const net::TenantId bulk = tc.store->tenants().register_tenant("bulk");
    const net::TenantId small = tc.store->tenants().register_tenant("small");

    sim::Time small_done = 0;
    std::vector<sim::Time> bulk_done(4, 0);
    for (std::size_t i = 0; i < bulk_done.size(); ++i) {
      tc.sim.spawn("bulk", store_one(&tc, bulk, 100 + i, 256 * 1024, 0,
                                     &bulk_done[i]));
    }
    tc.sim.spawn("small", store_one(&tc, small, 200, 64 * 1024,
                                    5 * sim::kMillisecond, &small_done));
    tc.sim.run();

    const qos::FairGate& gate =
        tc.store->admission().gate(qos::GateClass::ProviderIo);
    EXPECT_EQ(gate.admitted(small), 1u);
    EXPECT_EQ(gate.admitted(bulk), 4u);
    EXPECT_EQ(gate.in_use(), 0u);
    EXPECT_EQ(gate.pending(), 0u);

    const sim::Time bulk_last =
        *std::max_element(bulk_done.begin(), bulk_done.end());
    if (fair) {
      // Admitted right after the in-flight bulk store drains, ahead of the
      // backlog: the small tenant has no accumulated normalized service.
      EXPECT_LT(small_done, bulk_last)
          << "fair provider gate kept the small store behind the backlog";
      EXPECT_LT(tc.store->admission().wait(qos::GateClass::ProviderIo, small),
                tc.store->admission().wait(qos::GateClass::ProviderIo, bulk));
      small_done_fair = small_done;
    } else {
      EXPECT_GT(small_done, bulk_last)
          << "FIFO baseline should drain arrivals in order";
      small_done_fifo = small_done;
    }
  }
  // Same capacity, different ordering policy: fairness is strictly better
  // for the small tenant's latency.
  EXPECT_LT(small_done_fair, small_done_fifo);
}

// ---------------------------------------------------------------------------
// TenantUsage::commit_wait is read from the gate and the queues that saw the
// wait: the commit gate plus the version- and provider-manager queues. With
// QoS off the manager queues serve in arrival order and still report their
// waits, so two tenants' concurrent commits show up in commit_wait.
// ---------------------------------------------------------------------------

Task<> commit_as(ProviderCluster* tc, net::TenantId tenant,
                 std::uint64_t seed) {
  blob::BlobClient client(*tc->store, tc->client_node);
  client.set_tenant(tenant);
  const blob::BlobId blob = co_await client.create();
  (void)co_await client.write(blob, 0, Buffer::pattern(64 * 1024, seed));
}

TEST(QosUsageTest, CommitWaitCountsManagerQueuesWithQosOff) {
  ProviderCluster tc(/*fair=*/false);
  const net::TenantId a = tc.store->tenants().register_tenant("a");
  const net::TenantId b = tc.store->tenants().register_tenant("b");
  for (std::uint64_t k = 0; k < 2; ++k) {
    tc.sim.spawn("a", commit_as(&tc, a, 10 + k));
    tc.sim.spawn("b", commit_as(&tc, b, 20 + k));
  }
  tc.sim.run();

  for (const net::TenantId t : {a, b}) {
    const sim::Duration managers =
        tc.store->version_manager().tenant_wait(t) +
        tc.store->provider_manager().service().tenant_wait(t);
    const blob::BlobStore::TenantUsage u = tc.store->tenant_usage_snapshot(t);
    EXPECT_EQ(u.commit_wait,
              tc.store->admission().wait(qos::GateClass::Commit, t) +
                  managers)
        << "tenant " << t;
    EXPECT_EQ(u.commits, 2u) << "tenant " << t;
    EXPECT_GT(u.commit_wait, 0) << "tenant " << t;
  }
}

// ---------------------------------------------------------------------------
// Kill-safety at every gate class, through AdmissionPlane::admit: a waiter
// killed in the queue unlinks, a holder killed mid-service releases through
// the RAII permit, and the survivor is admitted the moment the slot frees.
// ---------------------------------------------------------------------------

Task<> admit_and_hold(sim::Simulation* sim, qos::AdmissionPlane* plane,
                      qos::IoContext ctx, sim::Duration pre_delay,
                      sim::Duration hold_time, sim::Time* admitted) {
  if (pre_delay > 0) co_await sim->delay(pre_delay);
  qos::FairGate::Permit permit = co_await plane->admit(ctx, 1.0);
  (void)permit;
  if (admitted != nullptr) *admitted = sim->now();
  if (hold_time > 0) co_await sim->delay(hold_time);
}

TEST(QosPlaneTest, KilledWaiterAndHolderReleaseEveryGateClass) {
  for (const qos::GateClass gc :
       {qos::GateClass::Commit, qos::GateClass::ProviderIo,
        qos::GateClass::RestartPrefetch}) {
    sim::Simulation sim;
    qos::Config cfg;
    cfg.enabled = true;
    cfg.commit_slots = 1;
    cfg.provider_slots = 1;
    cfg.prefetch_slots = 1;
    qos::AdmissionPlane plane(sim, cfg);
    const net::TenantId t1 = plane.tenants().register_tenant("t1");
    const net::TenantId t2 = plane.tenants().register_tenant("t2");

    sim::Time survivor_admitted = 0;
    auto holder = sim.spawn(
        "holder", admit_and_hold(&sim, &plane, {t1, gc}, 0, 10 * sim::kSecond,
                                 nullptr));
    auto waiter = sim.spawn(
        "waiter", admit_and_hold(&sim, &plane, {t1, gc},
                                 100 * sim::kMillisecond, 10 * sim::kSecond,
                                 nullptr));
    sim.spawn("survivor",
              admit_and_hold(&sim, &plane, {t2, gc}, 200 * sim::kMillisecond,
                             0, &survivor_admitted));
    sim.spawn("killer", kill_two(&sim, 1 * sim::kSecond, waiter, holder));
    sim.run();

    EXPECT_EQ(survivor_admitted, 1 * sim::kSecond)
        << "gate " << qos::gate_class_name(gc);
    EXPECT_EQ(plane.gate(gc).in_use(), 0u) << qos::gate_class_name(gc);
    EXPECT_EQ(plane.gate(gc).pending(), 0u) << qos::gate_class_name(gc);
  }
}

// ---------------------------------------------------------------------------
// Rollback storm vs live commits, both directions, through the full stack:
// with every gate bounded, a mass-rollback tenant cycling cold restarts and
// a tenant checkpointing live share the plane — both finish bit-exact, and
// the storm's prefetches actually queue at the restart-prefetch gate.
// ---------------------------------------------------------------------------

CloudConfig qos_cloud_cfg(std::size_t compute_nodes) {
  CloudConfig cfg;
  cfg.compute_nodes = compute_nodes;
  cfg.metadata_nodes = 2;
  cfg.backend = Backend::BlobCR;
  cfg.reduction.enabled = true;
  cfg.os = vm::GuestOsConfig::test_tiny();
  cfg.vm.os_ram_bytes = 20 * common::kMB;
  cfg.qos.enabled = true;
  cfg.qos.commit_slots = 2;
  cfg.qos.provider_slots = 2;
  cfg.qos.prefetch_slots = 2;
  return cfg;
}

TEST(QosStormTest, RollbackStormAndLiveCommitsFinishInBothDirections) {
  // storm_is_bulk=true: two bulk instances cycle rollbacks against a small
  // live committer; false swaps the roles (live bulk committer, small
  // tenant cycling restarts). Neither side may starve the other.
  for (const bool storm_is_bulk : {true, false}) {
    Cloud cloud(qos_cloud_cfg(8));
    apps::MultiJobRun run;
    run.shared_fraction = 0.25;

    apps::TenantJobSpec storm;
    storm.name = "storm";
    storm.instances = storm_is_bulk ? 2 : 1;
    storm.buffer_bytes = (storm_is_bulk ? 1024 : 256) * common::kKiB;
    storm.rounds = 3;
    storm.restart_every = 1;  // rollback after every committed round

    apps::TenantJobSpec live;
    live.name = "live";
    live.weight = 2.0;
    live.instances = storm_is_bulk ? 1 : 2;
    live.buffer_bytes = (storm_is_bulk ? 256 : 1024) * common::kKiB;
    live.rounds = 3;
    live.stagger = 500 * sim::kMillisecond;
    live.think_time = 100 * sim::kMillisecond;

    run.jobs = {storm, live};
    const apps::MultiJobResult result = apps::run_multi_job(cloud, run);

    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_TRUE(result.all_verified())
        << "storm_is_bulk=" << storm_is_bulk
        << ": a restore was not bit-exact under contention";
    for (const apps::JobResult& job : result.jobs) {
      ASSERT_EQ(job.records.size(), 3u) << job.name;
      for (const cr::CheckpointRecord& r : job.records) {
        EXPECT_EQ(r.state, cr::RecordState::Complete) << job.name;
      }
    }
    // Two mid-job rollbacks plus the final restart for the storm tenant.
    EXPECT_EQ(result.jobs[0].restart_times.size(), 3u);
    EXPECT_EQ(result.jobs[1].restart_times.size(), 1u);

    // The storm really went through the restart-prefetch gate, and nothing
    // is left admitted or queued anywhere on the plane.
    const qos::AdmissionPlane& plane = cloud.blob_store()->admission();
    EXPECT_GT(
        plane.gate(qos::GateClass::RestartPrefetch).admitted(
            result.jobs[0].tenant),
        0u)
        << "rollback cycles never admitted at the restart-prefetch gate";
    for (const qos::GateClass gc :
         {qos::GateClass::Commit, qos::GateClass::ProviderIo,
          qos::GateClass::RestartPrefetch}) {
      EXPECT_EQ(plane.gate(gc).in_use(), 0u) << qos::gate_class_name(gc);
      EXPECT_EQ(plane.gate(gc).pending(), 0u) << qos::gate_class_name(gc);
    }
  }
}

// ---------------------------------------------------------------------------
// A queued prefetch range holds no permit: with one restart-prefetch slot and
// two cold-restarted mirrors hinted once per chunk, the gate sees each
// mirror's workers (at most MirrorDevice::kPrefetchStreams of them), never
// the hundreds of ranges queued behind them.
// ---------------------------------------------------------------------------

/// Hints every chunk of `m`'s image, one range per chunk.
void hint_every_chunk(core::MirrorDevice* m, std::uint64_t chunk) {
  for (std::uint64_t off = 0; off < m->capacity(); off += chunk) {
    m->hint(off, chunk);
  }
}

TEST(QosPrefetchTest, QueuedRangesWaitOutsideTheRestartPrefetchGate) {
  CloudConfig cfg = qos_cloud_cfg(8);
  cfg.qos.prefetch_slots = 1;
  Cloud cloud(cfg);
  std::size_t max_queued = 0, max_in_use = 0, max_pending = 0;

  cloud.run([](Cloud* cl, std::size_t* max_queued, std::size_t* max_in_use,
               std::size_t* max_pending) -> Task<> {
    sim::Simulation& sim = cl->simulation();
    co_await cl->provision_base_image();
    const net::TenantId tenant = cl->register_tenant("t");
    cr::Session::Config scfg;
    scfg.job = "t";
    Deployment::Options opts{0, tenant, std::nullopt};
    Deployment dep(*cl, 2, opts);
    cr::Session session(dep, scfg);
    co_await dep.deploy_and_boot();
    (void)co_await session.checkpoint();
    dep.destroy_all();
    (void)co_await session.restart(cr::Selector::latest(),
                                   {.node_offset = 4, .cold_caches = true});
    for (std::size_t i = 0; i < 2; ++i) {
      hint_every_chunk(dep.instance(i).mirror.get(), cl->config().chunk_size);
    }
    const qos::FairGate& gate =
        cl->blob_store()->admission().gate(qos::GateClass::RestartPrefetch);
    // Sample until the queues are drained and the gate is idle, so that
    // ranges handed to one process each, waiting at the gate instead of in
    // the queue, would show as pending.
    for (;;) {
      std::size_t queued = 0;
      for (std::size_t i = 0; i < 2; ++i) {
        queued += dep.instance(i).mirror->prefetch_queued();
      }
      *max_queued = std::max(*max_queued, queued);
      *max_in_use = std::max(*max_in_use, gate.in_use());
      *max_pending = std::max(*max_pending, gate.pending());
      if (queued == 0 && gate.in_use() == 0 && gate.pending() == 0) break;
      co_await sim.delay(10 * sim::kMillisecond);
    }
  }(&cloud, &max_queued, &max_in_use, &max_pending));

  EXPECT_GE(max_queued, 200u) << "the hints never queued hundreds of ranges";
  EXPECT_LE(max_in_use, 1u);
  EXPECT_LE(max_pending, 2 * core::MirrorDevice::kPrefetchStreams - 1);
}

// ---------------------------------------------------------------------------
// Regression: prefetch workers killed at deployment teardown must release
// their admission state — the permit a holder carries and the queue entry a
// waiter occupies. With prefetch_slots=1 a leaked permit would wedge every
// later restart's prefetch against this repository. Teardown runs once with
// one whole-image hint per mirror and once with one hint per chunk, so that
// ranges are still queued when the workers die.
// ---------------------------------------------------------------------------

TEST(QosTeardownTest, KilledPrefetchWorkersReleaseAdmissionPermits) {
  for (const bool per_chunk : {false, true}) {
    SCOPED_TRACE(per_chunk ? "one hint per chunk" : "one whole-image hint");
    CloudConfig cfg = qos_cloud_cfg(12);
    cfg.qos.prefetch_slots = 1;  // a single leak wedges the gate
    Cloud cloud(cfg);
    bool verified = false;
    std::size_t queued_at_kill = 0;
    std::size_t in_use_after_kill = 1, pending_after_kill = 1;
    std::size_t in_use_final = 1, pending_final = 1;

    cloud.run([](Cloud* cl, bool per_chunk, bool* verified,
                 std::size_t* queued_at_kill, std::size_t* in_use_after_kill,
                 std::size_t* pending_after_kill, std::size_t* in_use_final,
                 std::size_t* pending_final) -> Task<> {
      sim::Simulation& sim = cl->simulation();
      co_await cl->provision_base_image();
      const net::TenantId tenant = cl->register_tenant("t");
      cr::Session::Config scfg;
      scfg.job = "t";

      std::vector<std::uint64_t> digests(2, 0);
      {
        // Driver generation 1: checkpoint, cold-restart, then die while one
        // prefetch worker holds the plane's only prefetch permit and others
        // are queued behind it (teardown kills the workers mid-flight; the
        // permit must release and the waiters must unlink as frames
        // unwind).
        Deployment::Options opts{0, tenant, std::nullopt};
        Deployment dep(*cl, 2, opts);
        cr::Session session(dep, scfg);
        co_await dep.deploy_and_boot();
        for (std::size_t i = 0; i < 2; ++i) {
          Buffer buf = Buffer::pattern(2 * common::kMB, 0xbeef + i);
          digests[i] = buf.digest();
          co_await dep.vm(i).fs()->write_file("/data/buf.bin",
                                              std::move(buf));
          co_await dep.vm(i).fs()->sync();
        }
        (void)co_await session.checkpoint();
        dep.destroy_all();
        (void)co_await session.restart(
            cr::Selector::latest(), {.node_offset = 4, .cold_caches = true});
        for (std::size_t i = 0; i < 2; ++i) {
          core::MirrorDevice* m = dep.instance(i).mirror.get();
          if (per_chunk) {
            hint_every_chunk(m, cl->config().chunk_size);
          } else {
            m->hint(0, m->capacity());
          }
        }
        co_await sim.delay(1 * sim::kMillisecond);
        for (std::size_t i = 0; i < 2; ++i) {
          *queued_at_kill += dep.instance(i).mirror->prefetch_queued();
        }
        // Total driver loss mid-prefetch: ~Deployment kills every worker.
      }

      const qos::FairGate& gate =
          cl->blob_store()->admission().gate(qos::GateClass::RestartPrefetch);
      *in_use_after_kill = gate.in_use();
      *pending_after_kill = gate.pending();

      // Driver generation 2: the gate must still dispatch — a fresh
      // deployment's cold restart (whose scheduler prefetches through the
      // same single slot) restores bit-exactly.
      Deployment::Options opts2{8, tenant, std::nullopt};
      Deployment dep2(*cl, 2, opts2);
      cr::Session session2(dep2, scfg);
      (void)co_await session2.restart(
          cr::Selector::latest(), {.node_offset = 8, .cold_caches = true});
      bool ok = true;
      for (std::size_t i = 0; i < 2; ++i) {
        const Buffer back =
            co_await dep2.vm(i).fs()->read_file("/data/buf.bin");
        ok = ok && back.size() == 2 * common::kMB &&
             back.digest() == digests[i];
      }
      *verified = ok;
      co_await sim.delay(30 * sim::kSecond);  // let background prefetch drain
      *in_use_final = gate.in_use();
      *pending_final = gate.pending();
    }(&cloud, per_chunk, &verified, &queued_at_kill, &in_use_after_kill,
      &pending_after_kill, &in_use_final, &pending_final));

    if (per_chunk) {
      EXPECT_GT(queued_at_kill, 0u) << "teardown found no queued ranges";
    }
    EXPECT_EQ(in_use_after_kill, 0u)
        << "a killed prefetch holder leaked its admission permit";
    EXPECT_EQ(pending_after_kill, 0u)
        << "a killed queued prefetch worker never unlinked from the gate";
    EXPECT_TRUE(verified);
    EXPECT_EQ(in_use_final, 0u);
    EXPECT_EQ(pending_final, 0u);
  }
}

}  // namespace
}  // namespace blobcr
