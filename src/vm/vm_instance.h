// VmInstance + GuestProcess: the KVM instance model.
//
// A VmInstance runs on a compute node, owns a virtual disk (any
// BlockDevice), a mounted guest file system after boot, and a set of guest
// processes (sim processes gated by the VM's pause state). pause()/resume()
// implement the hypervisor's vCPU freeze used while the proxy snapshots the
// disk; destroy() is the fail-stop path (or teardown before re-deployment).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/units.h"
#include "guestfs/simplefs.h"
#include "img/block_device.h"
#include "net/fabric.h"
#include "sim/sim.h"

namespace blobcr::vm {

struct VmConfig {
  std::string name = "vm";
  /// RAM used by the guest OS itself (kernel, daemons, page cache, device
  /// state) — the paper measures ~118 MB of full-snapshot overhead.
  std::uint64_t os_ram_bytes = 118 * common::kMB;
  /// Per-process runtime overhead beyond registered regions (libs, stack).
  std::uint64_t process_overhead_bytes = 2 * common::kMB;
};

class VmInstance;

/// One process inside the guest. Its "memory" is a set of named regions the
/// application registers; BLCR dumps exactly these regions plus overhead.
class GuestProcess {
 public:
  GuestProcess(VmInstance& vm, std::string name, int id)
      : vm_(&vm), name_(std::move(name)), id_(id) {}

  VmInstance& vm() { return *vm_; }
  const std::string& name() const { return name_; }
  int id() const { return id_; }

  common::Buffer& region(const std::string& name) { return regions_[name]; }
  void set_region(const std::string& name, common::Buffer data) {
    regions_[name] = std::move(data);
  }
  const std::map<std::string, common::Buffer>& regions() const {
    return regions_;
  }
  std::uint64_t memory_bytes() const;

  /// Gated compute: consumes virtual time unless the VM is paused.
  sim::Task<> compute(sim::Duration d);

 private:
  VmInstance* vm_;
  std::string name_;
  int id_;
  std::map<std::string, common::Buffer> regions_;
};

class VmInstance {
 public:
  VmInstance(sim::Simulation& sim, net::NodeId host, img::BlockDevice& disk,
             VmConfig cfg)
      : sim_(&sim),
        host_(host),
        disk_(&disk),
        cfg_(std::move(cfg)),
        run_event_(sim) {
    run_event_.set();
  }

  sim::Simulation& simulation() const { return *sim_; }
  net::NodeId host() const { return host_; }
  img::BlockDevice& disk() { return *disk_; }
  const VmConfig& config() const { return cfg_; }
  const std::string& name() const { return cfg_.name; }

  bool paused() const { return paused_; }
  bool destroyed() const { return destroyed_; }

  /// Freezes vCPUs: guest compute and new guest I/O stall until resume().
  void pause() {
    paused_ = true;
    run_event_.reset();
  }
  void resume() {
    paused_ = false;
    run_event_.set();
  }

  /// Suspends the caller until the VM is running.
  sim::Task<> gate() {
    while (paused_) co_await run_event_.wait();
    if (destroyed_) throw std::runtime_error("vm destroyed");
  }

  sim::Task<> guest_compute(sim::Duration d) {
    co_await gate();
    co_await sim_->delay(d);
  }

  /// The mounted guest file system (set by boot; null before).
  guestfs::SimpleFs* fs() { return fs_.get(); }
  void adopt_fs(std::unique_ptr<guestfs::SimpleFs> fs) { fs_ = std::move(fs); }

  /// Creates a guest process and runs `body(process)` as a sim process.
  /// The callable is moved into the trampoline's coroutine frame so that
  /// capturing lambdas stay alive for the process's whole lifetime.
  GuestProcess& start_guest(const std::string& name,
                            std::function<sim::Task<>(GuestProcess&)> body) {
    auto gp = std::make_unique<GuestProcess>(*this, name,
                                             static_cast<int>(guests_.size()));
    GuestProcess& ref = *gp;
    guests_.push_back(std::move(gp));
    procs_.push_back(
        sim_->spawn(cfg_.name + "/" + name, guest_trampoline(std::move(body), &ref)));
    return ref;
  }

  const std::vector<std::unique_ptr<GuestProcess>>& guests() const {
    return guests_;
  }
  const std::vector<sim::ProcessPtr>& guest_procs() const { return procs_; }

  /// Waits until every guest process has finished.
  sim::Task<> join_guests() {
    for (const auto& p : procs_) co_await p->join();
    for (const auto& p : procs_) {
      if (p->error()) std::rethrow_exception(p->error());
    }
  }

  /// Fail-stop / teardown: kills all guest activity. The virtual disk's
  /// local state dies with the node; only snapshots in the repository
  /// survive.
  void destroy() {
    destroyed_ = true;
    for (const auto& p : procs_) p->kill();
  }

  /// RAM captured by a full VM snapshot: guest OS + all process images.
  std::uint64_t ram_state_bytes() const {
    std::uint64_t total = cfg_.os_ram_bytes;
    for (const auto& g : guests_) total += g->memory_bytes();
    return total;
  }

 private:
  static sim::Task<> guest_trampoline(
      std::function<sim::Task<>(GuestProcess&)> body, GuestProcess* gp) {
    co_await body(*gp);
  }

  sim::Simulation* sim_;
  net::NodeId host_;
  img::BlockDevice* disk_;
  VmConfig cfg_;
  sim::Event run_event_;
  bool paused_ = false;
  bool destroyed_ = false;
  std::unique_ptr<guestfs::SimpleFs> fs_;
  std::vector<std::unique_ptr<GuestProcess>> guests_;
  std::vector<sim::ProcessPtr> procs_;
};

inline std::uint64_t GuestProcess::memory_bytes() const {
  std::uint64_t total = vm_->config().process_overhead_bytes;
  for (const auto& [name, buf] : regions_) total += buf.size();
  return total;
}

inline sim::Task<> GuestProcess::compute(sim::Duration d) {
  co_await vm_->guest_compute(d);
}

}  // namespace blobcr::vm
