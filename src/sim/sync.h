// Virtual-time synchronization primitives: WaitQueue, Event, Semaphore,
// Mutex, Barrier, Channel<T>.
//
// All wakeups are *scheduled* (events at the current virtual time), never
// inline resumes, so no process ever runs re-entrantly inside another
// process's stack. Every wait node implements Blocker so a killed process
// detaches cleanly; nodes that were already handed a semaphore permit return
// it on cancellation.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <list>
#include <optional>

#include "sim/process.h"
#include "sim/simulation.h"

namespace blobcr::sim {

class WaitQueue {
 public:
  explicit WaitQueue(Simulation& sim) : sim_(&sim) {}
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  class Awaiter;

  Awaiter wait();
  bool empty() const { return list_.empty(); }

  /// Wakes the oldest waiter; returns false if none.
  bool notify_one();
  std::size_t notify_all();

  Simulation& simulation() const { return *sim_; }

 private:
  friend class Awaiter;
  Simulation* sim_;
  std::list<Awaiter*> list_;
};

class WaitQueue::Awaiter : public Blocker {
 public:
  explicit Awaiter(WaitQueue& q) : q_(&q) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    proc_ = q_->sim_->current_process();
    assert(proc_ != nullptr && "wait() outside a process");
    h_ = h;
    proc_->set_blocker(this);
    it_ = q_->list_.insert(q_->list_.end(), this);
  }
  void await_resume() const noexcept {}

  void cancel() noexcept override {
    if (notified_) {
      resume_ev_.cancel();
    } else {
      q_->list_.erase(it_);
    }
  }

 private:
  friend class WaitQueue;

  void notify() {
    notified_ = true;
    resume_ev_ = q_->sim_->call_at(q_->sim_->now(), [this] {
      proc_->clear_blocker(this);
      proc_->resume_leaf(h_);
    });
  }

  WaitQueue* q_;
  Process* proc_ = nullptr;
  std::coroutine_handle<> h_{};
  std::list<Awaiter*>::iterator it_{};
  bool notified_ = false;
  TimerHandle resume_ev_;
};

inline WaitQueue::Awaiter WaitQueue::wait() { return Awaiter(*this); }

inline bool WaitQueue::notify_one() {
  if (list_.empty()) return false;
  Awaiter* a = list_.front();
  list_.pop_front();
  a->notify();
  return true;
}

inline std::size_t WaitQueue::notify_all() {
  std::size_t n = 0;
  while (notify_one()) ++n;
  return n;
}

/// One-shot (resettable) broadcast event.
class Event {
 public:
  explicit Event(Simulation& sim) : q_(sim) {}

  void set() {
    if (!set_) {
      set_ = true;
      q_.notify_all();
    }
  }
  void reset() { set_ = false; }

  struct Awaiter {
    Event* ev;
    WaitQueue::Awaiter inner;
    bool await_ready() const noexcept { return ev->set_; }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    void await_resume() const noexcept {}
  };

  Awaiter wait() { return Awaiter{this, q_.wait()}; }

 private:
  bool set_ = false;
  WaitQueue q_;
};

/// Counting semaphore with FIFO hand-off.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t count) : sim_(&sim), count_(count) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  class Awaiter : public Blocker {
   public:
    explicit Awaiter(Semaphore& s) : sem_(&s) {}

    bool await_ready() noexcept {
      if (sem_->count_ > 0) {
        --sem_->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      proc_ = sem_->sim_->current_process();
      assert(proc_ != nullptr && "acquire() outside a process");
      h_ = h;
      proc_->set_blocker(this);
      it_ = sem_->list_.insert(sem_->list_.end(), this);
    }
    void await_resume() const noexcept {}

    void cancel() noexcept override {
      if (notified_) {
        // A permit was handed to us but we died before using it: return it.
        resume_ev_.cancel();
        sem_->release();
      } else {
        sem_->list_.erase(it_);
      }
    }

   private:
    friend class Semaphore;
    void notify() {
      notified_ = true;
      resume_ev_ = sem_->sim_->call_at(sem_->sim_->now(), [this] {
        proc_->clear_blocker(this);
        proc_->resume_leaf(h_);
      });
    }
    Semaphore* sem_;
    Process* proc_ = nullptr;
    std::coroutine_handle<> h_{};
    std::list<Awaiter*>::iterator it_{};
    bool notified_ = false;
    TimerHandle resume_ev_;
  };

  Awaiter acquire() { return Awaiter(*this); }

  void release(std::int64_t n = 1) {
    while (n > 0) {
      if (list_.empty()) {
        count_ += n;
        return;
      }
      Awaiter* a = list_.front();
      list_.pop_front();
      a->notify();  // hand-off: count unchanged
      --n;
    }
  }

 private:
  friend class Awaiter;
  Simulation* sim_;
  std::int64_t count_;
  std::list<Awaiter*> list_;
};

/// FIFO mutex whose guard releases on destruction — including during
/// kill-unwind of the owning process.
class Mutex {
 public:
  explicit Mutex(Simulation& sim) : sem_(sim, 1) {}

  class Guard {
   public:
    Guard() = default;
    explicit Guard(Mutex* m) : m_(m) {}
    Guard(Guard&& o) noexcept : m_(std::exchange(o.m_, nullptr)) {}
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        release();
        m_ = std::exchange(o.m_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { release(); }
    void release() {
      if (m_ != nullptr) {
        m_->sem_.release();
        m_ = nullptr;
      }
    }

   private:
    Mutex* m_ = nullptr;
  };

  struct Awaiter {
    Mutex* m;
    Semaphore::Awaiter inner;
    bool await_ready() noexcept { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    Guard await_resume() noexcept { return Guard(m); }
  };

  /// Usage: `auto guard = co_await mutex.lock();`
  Awaiter lock() { return Awaiter{this, sem_.acquire()}; }

 private:
  Semaphore sem_;
};

/// Cyclic barrier for a fixed number of parties.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties)
      : parties_(parties), q_(sim) {}

  struct Awaiter {
    Barrier* b;
    WaitQueue::Awaiter inner;
    bool await_ready() noexcept {
      if (++b->arrived_ == b->parties_) {
        b->arrived_ = 0;
        b->q_.notify_all();
        return true;  // last arriver passes straight through
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    void await_resume() const noexcept {}
  };

  Awaiter arrive_and_wait() { return Awaiter{this, q_.wait()}; }
  std::size_t parties() const { return parties_; }

 private:
  friend struct Awaiter;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  WaitQueue q_;
};

/// Unbounded FIFO message channel. A value pushed while receivers wait is
/// delivered directly to the oldest waiter (a killed waiter's in-flight
/// message is lost with it — fail-stop semantics).
template <class T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : q_(sim) {}

  class RecvAwaiter : public Blocker {
   public:
    explicit RecvAwaiter(Channel& c) : ch_(&c) {}

    bool await_ready() noexcept {
      if (!ch_->buf_.empty() && ch_->waiters_.empty()) {
        payload_.emplace(std::move(ch_->buf_.front()));
        ch_->buf_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      proc_ = ch_->q_.simulation().current_process();
      assert(proc_ != nullptr && "recv() outside a process");
      h_ = h;
      proc_->set_blocker(this);
      it_ = ch_->waiters_.insert(ch_->waiters_.end(), this);
    }
    T await_resume() { return std::move(*payload_); }

    void cancel() noexcept override {
      if (notified_) {
        resume_ev_.cancel();  // the delivered payload dies with the process
      } else {
        ch_->waiters_.erase(it_);
      }
    }

   private:
    friend class Channel;
    void deliver(T v) {
      payload_.emplace(std::move(v));
      notified_ = true;
      Simulation& sim = ch_->q_.simulation();
      resume_ev_ = sim.call_at(sim.now(), [this] {
        proc_->clear_blocker(this);
        proc_->resume_leaf(h_);
      });
    }
    Channel* ch_;
    Process* proc_ = nullptr;
    std::coroutine_handle<> h_{};
    typename std::list<RecvAwaiter*>::iterator it_{};
    std::optional<T> payload_;
    bool notified_ = false;
    TimerHandle resume_ev_;
  };

  void push(T v) {
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->deliver(std::move(v));
      return;
    }
    buf_.push_back(std::move(v));
  }

  RecvAwaiter recv() { return RecvAwaiter(*this); }

  std::size_t queued() const { return buf_.size(); }

 private:
  friend class RecvAwaiter;
  std::deque<T> buf_;
  std::list<RecvAwaiter*> waiters_;
  WaitQueue q_;  // supplies the Simulation reference
};

}  // namespace blobcr::sim
