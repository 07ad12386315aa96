// Process: a spawned root coroutine plus the machinery needed to kill it.
//
// Fail-stop semantics: a simulated machine failure destroys, at an arbitrary
// virtual time, every process running on it. `Process::kill()` implements
// this: it recursively kills child processes, cancels the process's single
// outstanding Blocker (a suspended timer, a wait-list node or a bandwidth
// flow), and destroys the root coroutine frame. Frame destruction runs
// destructors of everything in flight, so RAII guards (permits) release
// cleanly and the rest of the simulation observes a consistent world.
//
// Every wait list (sim/sync.h, join(), qos::FairGate) parks its waiters on
// one kill-safe node, Parked: a kill detaches it whether it is still listed
// or already woken, and a woken node hands on what the wake-up gave it.
#pragma once

#include <cassert>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace blobcr::sim {

/// One suspended wait of a process. At most one Blocker is outstanding per
/// process (a process is a single thread of execution); concurrency within a
/// process is expressed by spawning child processes. Timers (DelayAwaiter)
/// and bandwidth flows (sim::Flow) implement it directly; wait-list nodes
/// derive from Parked.
class Blocker {
 public:
  /// Deregisters this blocker from whatever structure holds it (event queue,
  /// wait list, flow ports). Called exactly once, and only while the
  /// owning process is being killed. Must not resume the coroutine.
  virtual void cancel() noexcept = 0;

 protected:
  ~Blocker() = default;
};

class Process : public std::enable_shared_from_this<Process> {
 public:
  enum class State { Running, Done, Failed, Killed };

  const std::string& name() const { return name_; }
  State state() const { return state_; }
  bool finished() const { return state_ != State::Running; }
  /// Exception that escaped the root task, if state() == Failed.
  std::exception_ptr error() const { return error_; }

  /// Fail-stop terminate. No-op when already finished. Must not be called
  /// from within the process itself (use a normal return or throw instead).
  void kill();

  /// co_await p->join(): waits until the process finishes (by any means).
  struct JoinAwaiter;
  JoinAwaiter join();

  Simulation& simulation() const { return *sim_; }

  // --- used by awaitable implementations ---
  void set_blocker(Blocker* b) {
    assert(blocker_ == nullptr);
    blocker_ = b;
  }
  void clear_blocker(Blocker* b) {
    assert(blocker_ == b);
    (void)b;
    blocker_ = nullptr;
  }
  /// Resumes the process's suspended leaf coroutine with current-process
  /// tracking. Only call from event callbacks.
  void resume_leaf(std::coroutine_handle<> h);

 private:
  friend class Simulation;

  Process(Simulation& sim, std::string name);

  void start();
  void on_root_done();
  void finish(State s);

  Simulation* sim_;
  std::string name_;
  Task<> root_;
  State state_ = State::Running;
  std::exception_ptr error_;
  Blocker* blocker_ = nullptr;
  std::vector<std::weak_ptr<Process>> children_;
  std::vector<JoinAwaiter*> joiners_;
};

/// A wait-list node, inside the waiting coroutine's frame. It is *listed*
/// from park() until the structure takes it off its list and calls wake(),
/// then *woken* until the process resumes.
class Parked : public Blocker {
 public:
  /// Blocks the current process on this node; the caller then lists it.
  void park(Simulation& sim, std::coroutine_handle<> h) {
    proc_ = sim.current_process();
    assert(proc_ != nullptr && "wait outside a process");
    h_ = h;
    proc_->set_blocker(this);
  }
  /// Schedules the process's resume at the current instant.
  void wake() {
    woken_ = true;
    Simulation& sim = proc_->simulation();
    resume_ev_ = sim.call_at(sim.now(), [this] {
      proc_->clear_blocker(this);
      proc_->resume_leaf(h_);
    });
  }
  void cancel() noexcept final {
    if (woken_) {
      resume_ev_.cancel();
      abandon();
    } else {
      unlink();
    }
  }

 protected:
  ~Parked() = default;
  /// Takes the node off its list: the process died while still listed.
  virtual void unlink() noexcept = 0;
  /// The process died after wake() but before it resumed: hand on what the
  /// wake-up gave it. Does nothing by default.
  virtual void abandon() noexcept {}

 private:
  Process* proc_ = nullptr;
  std::coroutine_handle<> h_{};
  TimerHandle resume_ev_;
  bool woken_ = false;
};

struct Process::JoinAwaiter : Parked {
  explicit JoinAwaiter(Process* target) : target(target) {}

  bool await_ready() const noexcept { return target->finished(); }
  void await_suspend(std::coroutine_handle<> h) {
    park(*target->sim_, h);
    target->joiners_.push_back(this);
  }
  void await_resume() const noexcept {}

  Process* target;

 private:
  void unlink() noexcept override { std::erase(target->joiners_, this); }
};

inline Process::JoinAwaiter Process::join() { return JoinAwaiter(this); }

/// Awaiter for Simulation::delay()/yield().
struct Simulation::DelayAwaiter : Blocker {
  Simulation* sim;
  Duration d;
  Process* proc = nullptr;
  std::coroutine_handle<> h{};
  TimerHandle timer;

  DelayAwaiter(Simulation& s, Duration dd) : sim(&s), d(dd) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> handle) {
    proc = sim->current_process();
    assert(proc != nullptr && "delay() outside a process");
    h = handle;
    proc->set_blocker(this);
    timer = sim->call_in(d, [this] {
      proc->clear_blocker(this);
      proc->resume_leaf(h);
    });
  }
  void await_resume() const noexcept {}
  void cancel() noexcept override { timer.cancel(); }
};

inline Simulation::DelayAwaiter Simulation::delay(Duration d) {
  return DelayAwaiter(*this, d);
}

inline Simulation::DelayAwaiter Simulation::yield() { return delay(0); }

}  // namespace blobcr::sim
