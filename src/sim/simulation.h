// Simulation: the discrete-event core. Single-threaded, deterministic:
// events are ordered by (time, sequence number) and all randomness in the
// wider system flows from explicitly seeded RNGs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace blobcr::sim {

class Process;
class Simulation;
using ProcessPtr = std::shared_ptr<Process>;

/// Cancellable handle to a scheduled callback: a plain value that names a
/// pooled timer record by slot and generation. A record's generation moves
/// on whenever its timer fires, is cancelled or is dropped by shutdown(), so
/// a stale handle never reaches the slot's next occupant. A handle must not
/// be used after its Simulation is destroyed.
class TimerHandle {
 public:
  TimerHandle() = default;
  /// Removes the timer from the event queue. A no-op on a default handle
  /// and on one whose timer already fired or was cancelled or dropped.
  void cancel();

 private:
  friend class Simulation;
  TimerHandle(Simulation* sim, std::uint32_t slot, std::uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}
  Simulation* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Simulation {
 public:
  Simulation();
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }

  TimerHandle call_at(Time t, std::function<void()> fn);
  TimerHandle call_in(Duration d, std::function<void()> fn) {
    return call_at(now_ + d, std::move(fn));
  }
  /// Moves `h`'s pending timer to now() + d and gives it callback `fn`, in
  /// place. Same order as `h.cancel(); h = call_in(d, fn);`: the timer takes
  /// a fresh sequence number, so it runs after every event already queued
  /// for its new time. A handle with no pending timer schedules through
  /// call_in().
  void reschedule_in(TimerHandle& h, Duration d, std::function<void()> fn);

  /// Runs until the event queue is empty.
  void run();
  /// Runs events with timestamp <= t; afterwards now() == t if any event ran
  /// past or the queue drained. Returns false if the queue drained.
  bool run_until(Time t);

  /// Spawns a root process executing `body`. The process starts at the
  /// current time (via a scheduled event, never inline).
  ProcessPtr spawn(std::string name, Task<> body);

  /// Process currently executing (nullptr outside process context).
  Process* current_process() const { return current_; }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t live_process_count() const;

  /// Spawned processes, finished ones included until spawn() reaps them —
  /// for stall diagnostics: dump the unfinished ones to see who deadlocked.
  const std::vector<ProcessPtr>& debug_processes() const { return processes_; }

  /// Kills every live process (reverse spawn order) and drops every pending
  /// timer. Owners whose members (channels, stores...) are destroyed before
  /// the Simulation must call this first so coroutine frames unwind while
  /// the structures they reference are still alive.
  void shutdown();

  /// co_await sim.delay(d): suspends the calling process for d virtual time.
  struct DelayAwaiter;
  DelayAwaiter delay(Duration d);

  /// co_await sim.yield(): reschedules the calling process at the current
  /// time (runs after already-queued events).
  DelayAwaiter yield();

 private:
  friend class Process;
  friend class TimerHandle;

  // Pending timers form a binary min-heap of (t, seq) keys held by value.
  // Each entry names the pooled record that holds its callback, and each
  // record knows its heap position, so cancel and re-time are O(log n) and
  // the heap holds only live timers. (t, seq) is a strict total order, so
  // events fire in the same sequence whatever the heap's shape.
  struct Entry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Rec {
    std::function<void()> fn;
    std::uint64_t gen = 0;  // bumped each time the slot is released
    std::size_t pos = 0;    // heap index while pending
  };
  // spawn() reaps finished processes once processes_ has doubled since the
  // last reap, and never below this size.
  static constexpr std::size_t kReapFloor = 1024;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<ProcessPtr> processes_;
  std::size_t reap_at_ = kReapFloor;
  Process* current_ = nullptr;

  bool pending(const TimerHandle& h) const {
    return h.sim_ == this && recs_[h.slot_].gen == h.gen_;
  }
  void cancel(const TimerHandle& h);
  /// Bumps the slot's generation, frees it and hands back its callback.
  std::function<void()> release(std::uint32_t slot);
  void place(std::size_t i, const Entry& e) {
    heap_[i] = e;
    recs_[e.slot].pos = i;
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void erase_at(std::size_t i);
  bool step();  // executes one event; false if queue empty
  /// Drops bookkeeping references to finished processes and prunes expired
  /// child links.
  void reap_finished();
};

}  // namespace blobcr::sim
