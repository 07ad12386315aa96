// Virtual-time synchronization primitives: WaitQueue, Event, Semaphore,
// Barrier, Channel<T>.
//
// All wakeups are *scheduled* (events at the current virtual time), never
// inline resumes, so no process ever runs re-entrantly inside another
// process's stack. Every waiter parks on a sim::Parked node
// (sim/process.h), so a killed process detaches cleanly whether it was
// still listed or already woken; a woken semaphore waiter hands its permit
// on.
#pragma once

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

 private:
  friend class Awaiter;
  Simulation* sim_;
  std::list<Awaiter*> list_;
};

class WaitQueue::Awaiter : public Parked {
 public:
  explicit Awaiter(WaitQueue& q) : q_(&q) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    park(*q_->sim_, h);
    it_ = q_->list_.insert(q_->list_.end(), this);
  }
  void await_resume() const noexcept {}

 private:
  void unlink() noexcept override { q_->list_.erase(it_); }

  WaitQueue* q_;
  std::list<Awaiter*>::iterator it_{};
};

inline WaitQueue::Awaiter WaitQueue::wait() { return Awaiter(*this); }

inline bool WaitQueue::notify_one() {
  if (list_.empty()) return false;
  Awaiter* a = list_.front();
  list_.pop_front();
  a->wake();
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

  class Awaiter : public Parked {
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
      park(*sem_->sim_, h);
      it_ = sem_->list_.insert(sem_->list_.end(), this);
    }
    void await_resume() const noexcept {}

   private:
    void unlink() noexcept override { sem_->list_.erase(it_); }
    /// A permit was handed to us but we died before using it: pass it on.
    void abandon() noexcept override { sem_->release(); }

    Semaphore* sem_;
    std::list<Awaiter*>::iterator it_{};
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
      a->wake();  // hand-off: count unchanged
      --n;
    }
  }

 private:
  friend class Awaiter;
  Simulation* sim_;
  std::int64_t count_;
  std::list<Awaiter*> list_;
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
  explicit Channel(Simulation& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  class RecvAwaiter : public Parked {
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
      park(*ch_->sim_, h);
      it_ = ch_->waiters_.insert(ch_->waiters_.end(), this);
    }
    T await_resume() { return std::move(*payload_); }

   private:
    friend class Channel;
    // abandon() keeps its default: a delivered payload dies with the
    // killed receiver.
    void unlink() noexcept override { ch_->waiters_.erase(it_); }

    Channel* ch_;
    typename std::list<RecvAwaiter*>::iterator it_{};
    std::optional<T> payload_;
  };

  void push(T v) {
    if (!waiters_.empty()) {
      RecvAwaiter* w = waiters_.front();
      waiters_.pop_front();
      w->payload_.emplace(std::move(v));
      w->wake();
      return;
    }
    buf_.push_back(std::move(v));
  }

  RecvAwaiter recv() { return RecvAwaiter(*this); }

  std::size_t queued() const { return buf_.size(); }

 private:
  friend class RecvAwaiter;
  Simulation* sim_;
  std::deque<T> buf_;
  std::list<RecvAwaiter*> waiters_;
};

}  // namespace blobcr::sim
