// Mini-MPI: message passing between guest processes across VMs, plus the
// coordinated checkpoint protocol of the paper's modified mpich2 (§3.3):
// drain channels with markers, dump process state, sync the guest FS,
// request a disk snapshot from the node-local proxy, resume.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/buffer.h"
#include "net/fabric.h"
#include "sim/sim.h"
#include "vm/vm_instance.h"

namespace blobcr::mpi {

class MpiError : public std::runtime_error {
 public:
  explicit MpiError(const std::string& what) : std::runtime_error(what) {}
};

class MpiWorld {
 public:
  /// Envelope bytes every point-to-point message carries on the wire.
  static constexpr std::uint64_t kHeaderBytes = 64;

  MpiWorld(sim::Simulation& sim, net::Fabric& fabric)
      : sim_(&sim), fabric_(&fabric), bind_wq_(sim) {}

  /// Fixes the communicator size. Must be called before any rank starts
  /// communicating (collectives consult size() — a lazily growing world
  /// would let early ranks run a barrier of one).
  void set_size(int n) {
    if (static_cast<std::size_t>(n) > ranks_.size())
      ranks_.resize(static_cast<std::size_t>(n));
  }

  /// Registers a rank running inside a guest process (MPI_Init). Senders to
  /// a not-yet-registered rank rendezvous until it appears.
  void register_rank(int rank, vm::GuestProcess* proc) {
    set_size(rank + 1);
    ranks_[static_cast<std::size_t>(rank)].proc = proc;
    bind_wq_.notify_all();
  }

  /// Re-binds a rank after restart (the process now lives in a new VM).
  void rebind_rank(int rank, vm::GuestProcess* proc) {
    ranks_.at(static_cast<std::size_t>(rank)).proc = proc;
  }

  /// Reconstructs the communicator after a rollback: drops every in-flight
  /// message and resets collective state, leaving all ranks unbound. The
  /// coordinated checkpoint drains channels before snapshotting (§3.3), so
  /// checkpointed process state expects empty channels; pre-failure traffic
  /// must not leak into the restarted world ("in-transit network traffic is
  /// discarded", §2.3). Only call with no live rank processes.
  void reset_for_restart() {
    for (auto& r : ranks_) {
      r.inbox.clear();
      r.proc = nullptr;
    }
    barrier_gens_.assign(barrier_gens_.size(), 0);
    coll_gens_.assign(coll_gens_.size(), 0);
  }

  int size() const { return static_cast<int>(ranks_.size()); }

  class Comm {
   public:
    Comm() = default;
    Comm(MpiWorld* world, int rank) : world_(world), rank_(rank) {}

    int rank() const { return rank_; }
    int size() const { return world_->size(); }

    sim::Task<> send(int to, int tag, common::Buffer data);
    sim::Task<common::Buffer> recv(int from, int tag);
    /// Classic halo-exchange primitive.
    sim::Task<common::Buffer> sendrecv(int to, int tag_out,
                                       common::Buffer data, int from,
                                       int tag_in);
    sim::Task<> barrier();

    // --- collectives (mpich2-style algorithms) -------------------------
    // All ranks must call each collective in the same order; tags derive
    // from a per-rank generation counter that stays aligned across ranks
    // exactly like the barrier's.

    /// Binomial-tree broadcast: log2(n) rounds from `root`.
    sim::Task<> bcast(common::Buffer& data, int root);
    /// Binomial-tree element-wise sum; the returned vector is the global
    /// sum at `root` and this rank's partial contribution elsewhere.
    sim::Task<std::vector<double>> reduce_sum(std::vector<double> values,
                                              int root);
    /// reduce_sum to rank 0 + bcast (mpich2's small-message allreduce).
    sim::Task<std::vector<double>> allreduce_sum(std::vector<double> values);
    /// Flat gather: every rank's payload, ordered by rank, at `root`
    /// (empty vector elsewhere).
    sim::Task<std::vector<common::Buffer>> gather(common::Buffer mine,
                                                  int root);
    /// Flat scatter: `parts[r]` (required only at `root`) to each rank r;
    /// returns this rank's part.
    sim::Task<common::Buffer> scatter(std::vector<common::Buffer> parts,
                                      int root);

   private:
    /// Per-collective tag block, disjoint from barrier and user tags.
    int coll_tag();

    MpiWorld* world_ = nullptr;
    int rank_ = 0;
  };

  Comm comm(int rank) { return Comm(this, rank); }

  std::uint64_t messages_sent() const { return messages_sent_; }

 private:
  friend class Comm;

  struct RankState {
    vm::GuestProcess* proc = nullptr;
    // (src, tag) -> channel of payloads.
    std::map<std::pair<int, int>, std::unique_ptr<sim::Channel<common::Buffer>>>
        inbox;
  };

  sim::Channel<common::Buffer>& chan(int rank, int src, int tag) {
    auto& slot = ranks_.at(static_cast<std::size_t>(rank))
                     .inbox[std::make_pair(src, tag)];
    if (!slot) slot = std::make_unique<sim::Channel<common::Buffer>>(*sim_);
    return *slot;
  }

  vm::VmInstance& vm_of(int rank) {
    vm::GuestProcess* p = ranks_.at(static_cast<std::size_t>(rank)).proc;
    if (p == nullptr) throw MpiError("rank not bound");
    return p->vm();
  }

  /// Waits until `rank` has registered (start-up rendezvous).
  sim::Task<vm::VmInstance*> vm_of_async(int rank) {
    while (ranks_.at(static_cast<std::size_t>(rank)).proc == nullptr) {
      co_await bind_wq_.wait();
    }
    co_return &ranks_[static_cast<std::size_t>(rank)].proc->vm();
  }

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  std::vector<RankState> ranks_;
  std::vector<std::uint64_t> barrier_gens_;
  std::vector<std::uint64_t> coll_gens_;
  sim::WaitQueue bind_wq_;
  std::uint64_t messages_sent_ = 0;
};

inline sim::Task<> MpiWorld::Comm::send(int to, int tag,
                                        common::Buffer data) {
  MpiWorld& w = *world_;
  vm::VmInstance& src_vm = w.vm_of(rank_);
  vm::VmInstance& dst_vm = *co_await w.vm_of_async(to);
  co_await src_vm.gate();
  ++w.messages_sent_;
  co_await w.fabric_->transfer(src_vm.host(), dst_vm.host(),
                               data.size() + kHeaderBytes);
  w.chan(to, rank_, tag).push(std::move(data));
}

inline sim::Task<common::Buffer> MpiWorld::Comm::recv(int from, int tag) {
  MpiWorld& w = *world_;
  common::Buffer data = co_await w.chan(rank_, from, tag).recv();
  co_await w.vm_of(rank_).gate();  // delivery completes only while running
  co_return data;
}

inline sim::Task<common::Buffer> MpiWorld::Comm::sendrecv(
    int to, int tag_out, common::Buffer data, int from, int tag_in) {
  co_await send(to, tag_out, std::move(data));
  co_return co_await recv(from, tag_in);
}

inline int MpiWorld::Comm::coll_tag() {
  MpiWorld& w = *world_;
  if (w.coll_gens_.size() < static_cast<std::size_t>(size()))
    w.coll_gens_.resize(static_cast<std::size_t>(size()), 0);
  const std::uint64_t gen = w.coll_gens_[static_cast<std::size_t>(rank_)]++;
  // [5e8, 9e8): below the barrier's block, far above user tags.
  return 500'000'000 + static_cast<int>(gen % 400'000'000);
}

inline sim::Task<> MpiWorld::Comm::bcast(common::Buffer& data, int root) {
  const int n = size();
  if (n <= 1) co_return;
  const int tag = coll_tag();
  const int relative = (rank_ - root + n) % n;
  // Receive phase: find the peer one subtree up.
  int mask = 1;
  while (mask < n) {
    if (relative & mask) {
      const int src = (relative - mask + root) % n;
      data = co_await recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  // Forward phase: relay to the subtrees below the bit we received at
  // (bits under the receive bit are zero, so relative + mask is a child).
  mask >>= 1;
  while (mask > 0) {
    if (relative + mask < n) {
      const int dst = (relative + mask + root) % n;
      co_await send(dst, tag, data);
    }
    mask >>= 1;
  }
}

inline sim::Task<std::vector<double>> MpiWorld::Comm::reduce_sum(
    std::vector<double> values, int root) {
  const int n = size();
  if (n <= 1) co_return values;
  const int tag = coll_tag();
  const int relative = (rank_ - root + n) % n;
  auto encode = [](const std::vector<double>& v) {
    std::vector<std::byte> bytes(v.size() * sizeof(double));
    std::memcpy(bytes.data(), v.data(), bytes.size());
    return common::Buffer::real(std::move(bytes));
  };
  int mask = 1;
  while (mask < n) {
    if ((relative & mask) == 0) {
      const int source = relative | mask;
      if (source < n) {
        const common::Buffer in = co_await recv((source + root) % n, tag);
        if (in.size() != values.size() * sizeof(double))
          throw MpiError("reduce_sum: element count mismatch");
        const double* other =
            reinterpret_cast<const double*>(in.bytes().data());
        for (std::size_t i = 0; i < values.size(); ++i) values[i] += other[i];
      }
    } else {
      const int dst = ((relative & ~mask) + root) % n;
      co_await send(dst, tag, encode(values));
      break;
    }
    mask <<= 1;
  }
  co_return values;
}

inline sim::Task<std::vector<double>> MpiWorld::Comm::allreduce_sum(
    std::vector<double> values) {
  std::vector<double> total = co_await reduce_sum(std::move(values), 0);
  if (size() <= 1) co_return total;
  std::vector<std::byte> bytes(total.size() * sizeof(double));
  std::memcpy(bytes.data(), total.data(), bytes.size());
  common::Buffer buf = common::Buffer::real(std::move(bytes));
  co_await bcast(buf, 0);
  std::vector<double> out(buf.size() / sizeof(double));
  std::memcpy(out.data(), buf.bytes().data(), buf.size());
  co_return out;
}

inline sim::Task<std::vector<common::Buffer>> MpiWorld::Comm::gather(
    common::Buffer mine, int root) {
  const int n = size();
  const int tag = coll_tag();
  std::vector<common::Buffer> out;
  if (rank_ == root) {
    out.resize(static_cast<std::size_t>(n));
    out[static_cast<std::size_t>(root)] = std::move(mine);
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      out[static_cast<std::size_t>(r)] = co_await recv(r, tag);
    }
  } else {
    co_await send(root, tag, std::move(mine));
  }
  co_return out;
}

inline sim::Task<common::Buffer> MpiWorld::Comm::scatter(
    std::vector<common::Buffer> parts, int root) {
  const int n = size();
  const int tag = coll_tag();
  if (rank_ == root) {
    if (parts.size() != static_cast<std::size_t>(n))
      throw MpiError("scatter: need one part per rank at the root");
    for (int r = 0; r < n; ++r) {
      if (r == root) continue;
      co_await send(r, tag, std::move(parts[static_cast<std::size_t>(r)]));
    }
    co_return std::move(parts[static_cast<std::size_t>(root)]);
  }
  co_return co_await recv(root, tag);
}

inline sim::Task<> MpiWorld::Comm::barrier() {
  MpiWorld& w = *world_;
  const int n = size();
  if (n <= 1) co_return;
  // Each rank keeps its own barrier counter; all ranks reach barrier k with
  // the same count, so the generation-derived tags match up.
  if (w.barrier_gens_.size() < static_cast<std::size_t>(n))
    w.barrier_gens_.resize(static_cast<std::size_t>(n), 0);
  const std::uint64_t gen = w.barrier_gens_[static_cast<std::size_t>(rank_)]++;
  const int base = 1'000'000'000 + static_cast<int>(gen % 400'000'000) * 2;
  if (rank_ == 0) {
    for (int r = 1; r < n; ++r) (void)co_await recv(r, base);
    for (int r = 1; r < n; ++r) {
      co_await send(r, base + 1, common::Buffer());
    }
  } else {
    co_await send(0, base, common::Buffer());
    (void)co_await recv(0, base + 1);
  }
}

}  // namespace blobcr::mpi
