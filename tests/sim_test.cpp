// Tests for the discrete-event engine: tasks, processes, kill semantics,
// synchronization primitives, fair-share resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <list>
#include <memory>
#include <ostream>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sim.h"

namespace blobcr::sim {
namespace {

// --- basic time / event machinery -----------------------------------------

TEST(SimulationTest, CallbacksRunInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.call_at(30, [&] { order.push_back(3); });
  s.call_at(10, [&] { order.push_back(1); });
  s.call_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulationTest, SimultaneousEventsFifo) {
  Simulation s;
  std::vector<int> order;
  s.call_at(10, [&] { order.push_back(1); });
  s.call_at(10, [&] { order.push_back(2); });
  s.call_at(10, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, CancelledTimerDoesNotFire) {
  Simulation s;
  bool fired = false;
  TimerHandle h = s.call_at(5, [&] { fired = true; });
  h.cancel();
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, RunUntilStopsAtTime) {
  Simulation s;
  int count = 0;
  s.call_at(10, [&] { ++count; });
  s.call_at(20, [&] { ++count; });
  s.run_until(15);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 15);
  s.run();
  EXPECT_EQ(count, 2);
}

TEST(SimulationTest, StaleHandleCannotCancelSlotReuser) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle first = s.call_at(5, [&] { fired.push_back(1); });
  s.run();
  // The fired timer's record is free; the next timer reuses it.
  TimerHandle second = s.call_at(10, [&] { fired.push_back(2); });
  first.cancel();
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  second.cancel();  // already fired: a no-op
  EXPECT_EQ(s.events_processed(), 2u);
}

TEST(SimulationTest, DoubleCancelIsNoop) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle h = s.call_at(5, [&] { fired.push_back(1); });
  TimerHandle copy = h;
  h.cancel();
  s.call_at(6, [&] { fired.push_back(2); });
  h.cancel();
  copy.cancel();
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(SimulationTest, CancelAfterShutdownIsNoop) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle h = s.call_at(5, [&] { fired.push_back(1); });
  s.shutdown();
  h.cancel();
  s.call_at(7, [&] { fired.push_back(2); });
  h.cancel();  // must not reach the timer that reused h's record
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(s.now(), 7);
}

TEST(SimulationTest, RescheduleMovesPendingTimerBehindEqualTimes) {
  Simulation s;
  std::vector<int> order;
  TimerHandle h = s.call_at(10, [&] { order.push_back(1); });
  s.call_at(10, [&] { order.push_back(2); });
  s.call_at(20, [&] { order.push_back(3); });
  s.reschedule_in(h, 10, [&] { order.push_back(4); });  // same time, new seq
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3}));
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(SimulationTest, RescheduleOfFiredHandleSchedulesNewTimer) {
  Simulation s;
  std::vector<Time> fired;
  TimerHandle h = s.call_at(5, [&] { fired.push_back(s.now()); });
  s.run();
  s.reschedule_in(h, 3, [&] { fired.push_back(s.now()); });
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{5, 8}));
  TimerHandle fresh;
  s.reschedule_in(fresh, 2, [&] { fired.push_back(s.now()); });
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{5, 8, 10}));
}

// Reference event queue: a lazy-deletion heap of shared records. Cancelled
// records stay queued and are skipped when they reach the top. The
// differential test below replays random scripts on it and on Simulation.
class LazyQueue {
 public:
  struct Rec {
    Time t = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    bool cancelled = false;
  };
  struct Handle {
    std::shared_ptr<Rec> rec;
    void cancel() {
      if (rec) rec->cancelled = true;
      rec.reset();
    }
  };

  Time now() const { return now_; }
  std::uint64_t events_processed() const { return events_; }

  Handle call_at(Time t, std::function<void()> fn) {
    auto rec = std::make_shared<Rec>();
    rec->t = t;
    rec->seq = next_seq_++;
    rec->fn = std::move(fn);
    heap_.push(rec);
    return Handle{rec};
  }
  void reschedule_in(Handle& h, Duration d, std::function<void()> fn) {
    h.cancel();
    h = call_at(now_ + d, std::move(fn));
  }
  bool run_until(Time t) {
    while (!heap_.empty()) {
      if (heap_.top()->cancelled) {
        heap_.pop();
        continue;
      }
      if (heap_.top()->t > t) {
        now_ = t;
        return true;
      }
      auto rec = heap_.top();
      heap_.pop();
      now_ = rec->t;
      ++events_;
      auto fn = std::move(rec->fn);
      fn();
    }
    now_ = std::max(now_, t);
    return false;
  }

 private:
  struct Later {
    bool operator()(const std::shared_ptr<Rec>& a,
                    const std::shared_ptr<Rec>& b) const {
      return a->t != b->t ? a->t > b->t : a->seq > b->seq;
    }
  };
  std::priority_queue<std::shared_ptr<Rec>, std::vector<std::shared_ptr<Rec>>,
                      Later>
      heap_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_ = 0;
};

struct SimQueue {
  using Handle = TimerHandle;
  Simulation sim;
  Time now() const { return sim.now(); }
  std::uint64_t events_processed() const { return sim.events_processed(); }
  Handle call_at(Time t, std::function<void()> fn) {
    return sim.call_at(t, std::move(fn));
  }
  void reschedule_in(Handle& h, Duration d, std::function<void()> fn) {
    sim.reschedule_in(h, d, std::move(fn));
  }
  bool run_until(Time t) { return sim.run_until(t); }
};

// Replays one seeded script and returns its log: every firing (id and
// time), every run_until result, and the final event count. Timestamps come
// from a narrow range so that many timers tie; callbacks cancel, re-time
// and schedule timers themselves, and cancels hit fired handles as often as
// pending ones.
template <class Q>
std::vector<std::int64_t> replay_script(std::uint64_t seed) {
  Q q;
  std::mt19937_64 rng(seed);
  std::vector<typename Q::Handle> handles;
  std::vector<std::int64_t> log;
  int next_id = 0;
  auto pick = [&]() -> typename Q::Handle& {
    return handles[rng() % handles.size()];
  };
  std::function<std::function<void()>()> make_callback = [&] {
    const int id = next_id++;
    return [&, id] {
      log.push_back(id);
      log.push_back(q.now());
      switch (rng() % 4) {
        case 0:
          if (!handles.empty()) pick().cancel();
          break;
        case 1:
          if (!handles.empty()) {
            q.reschedule_in(pick(), static_cast<Duration>(rng() % 4),
                            make_callback());
          }
          break;
        case 2:
          handles.push_back(q.call_at(q.now() + static_cast<Time>(rng() % 3),
                                      make_callback()));
          break;
        default:
          break;
      }
    };
  };
  for (int op = 0; op < 600; ++op) {
    switch (rng() % 6) {
      case 0:
      case 1:
        handles.push_back(q.call_at(q.now() + static_cast<Time>(rng() % 5),
                                    make_callback()));
        break;
      case 2:
        if (!handles.empty()) pick().cancel();
        break;
      case 3:
        if (!handles.empty()) {
          q.reschedule_in(pick(), static_cast<Duration>(rng() % 5),
                          make_callback());
        }
        break;
      default: {
        const bool more = q.run_until(q.now() + static_cast<Time>(rng() % 3));
        log.push_back(more ? -1 : -2);
        log.push_back(q.now());
        break;
      }
    }
  }
  log.push_back(q.run_until(q.now() + 1000) ? -1 : -2);
  log.push_back(static_cast<std::int64_t>(q.events_processed()));
  return log;
}

TEST(SimulationTest, MatchesLazyDeletionReferenceOnRandomScripts) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto expected = replay_script<LazyQueue>(seed);
    const auto actual = replay_script<SimQueue>(seed);
    EXPECT_GT(expected.size(), 600u) << "seed " << seed;
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

// --- coroutine processes ---------------------------------------------------

Task<> record_after_delay(Simulation& s, Duration d, std::vector<Time>& out) {
  co_await s.delay(d);
  out.push_back(s.now());
}

TEST(ProcessTest, DelayAdvancesTime) {
  Simulation s;
  std::vector<Time> times;
  s.spawn("a", record_after_delay(s, 100, times));
  s.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 100);
}

TEST(ProcessTest, ProcessesInterleave) {
  Simulation s;
  std::vector<Time> times;
  s.spawn("a", record_after_delay(s, 200, times));
  s.spawn("b", record_after_delay(s, 100, times));
  s.run();
  EXPECT_EQ(times, (std::vector<Time>{100, 200}));
}

Task<int> add_later(Simulation& s, int a, int b) {
  co_await s.delay(10);
  co_return a + b;
}

Task<> use_subtask(Simulation& s, int& out) {
  out = co_await add_later(s, 2, 3);
}

TEST(ProcessTest, SubtaskReturnsValue) {
  Simulation s;
  int result = 0;
  s.spawn("main", use_subtask(s, result));
  s.run();
  EXPECT_EQ(result, 5);
}

Task<> thrower(Simulation& s) {
  co_await s.delay(1);
  throw std::runtime_error("boom");
}

Task<> catcher(Simulation& s, bool& caught) {
  try {
    co_await thrower(s);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(ProcessTest, ExceptionPropagatesToAwaiter) {
  Simulation s;
  bool caught = false;
  s.spawn("main", catcher(s, caught));
  s.run();
  EXPECT_TRUE(caught);
}

TEST(ProcessTest, UncaughtExceptionMarksFailed) {
  Simulation s;
  auto p = s.spawn("main", thrower(s));
  s.run();
  EXPECT_EQ(p->state(), Process::State::Failed);
  EXPECT_TRUE(p->error() != nullptr);
}

TEST(ProcessTest, NormalCompletionMarksDone) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("a", record_after_delay(s, 5, times));
  s.run();
  EXPECT_EQ(p->state(), Process::State::Done);
}

Task<> join_then_record(Simulation& s, ProcessPtr target, std::vector<Time>& out) {
  co_await target->join();
  out.push_back(s.now());
}

TEST(ProcessTest, JoinWaitsForCompletion) {
  Simulation s;
  std::vector<Time> times;
  auto worker = s.spawn("worker", record_after_delay(s, 50, times));
  s.spawn("joiner", join_then_record(s, worker, times));
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1], 50);
}

TEST(ProcessTest, JoinOnFinishedProcessReturnsImmediately) {
  Simulation s;
  std::vector<Time> times;
  auto worker = s.spawn("worker", record_after_delay(s, 10, times));
  s.run();
  s.spawn("joiner", join_then_record(s, worker, times));
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[1], 10);
}

// --- kill semantics ----------------------------------------------------------

TEST(KillTest, KilledProcessDoesNotResume) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("victim", record_after_delay(s, 100, times));
  s.call_at(50, [&] { p->kill(); });
  s.run();
  EXPECT_TRUE(times.empty());
  EXPECT_EQ(p->state(), Process::State::Killed);
}

TEST(KillTest, KillAfterCompletionIsNoop) {
  Simulation s;
  std::vector<Time> times;
  auto p = s.spawn("victim", record_after_delay(s, 10, times));
  s.run();
  p->kill();
  EXPECT_EQ(p->state(), Process::State::Done);
}

struct DtorFlag {
  bool* flag;
  explicit DtorFlag(bool* f) : flag(f) {}
  ~DtorFlag() {
    if (flag != nullptr) *flag = true;
  }
  DtorFlag(DtorFlag&& o) noexcept : flag(std::exchange(o.flag, nullptr)) {}
};

Task<> hold_raii(Simulation& s, bool* destroyed) {
  DtorFlag guard(destroyed);
  co_await s.delay(1000);
}

TEST(KillTest, KillRunsDestructorsOfInFlightFrames) {
  Simulation s;
  bool destroyed = false;
  auto p = s.spawn("victim", hold_raii(s, &destroyed));
  s.call_at(10, [&] { p->kill(); });
  s.run();
  EXPECT_TRUE(destroyed);
}

Task<> sleep_for(Simulation& s, Duration d) { co_await s.delay(d); }

Task<> parent_spawns_child(Simulation& s, bool* parent_done) {
  s.spawn("child", sleep_for(s, 1000));
  co_await s.delay(500);
  *parent_done = true;
}

TEST(KillTest, KillPropagatesToChildren) {
  Simulation s;
  bool parent_done = false;
  auto p = s.spawn("parent", parent_spawns_child(s, &parent_done));
  s.call_at(100, [&] { p->kill(); });
  s.run();
  EXPECT_FALSE(parent_done);
  EXPECT_EQ(s.live_process_count(), 0u);
}

// --- reaping finished processes ---------------------------------------------

Task<> finish_holding(Simulation& s, DtorFlag param) {
  co_await s.yield();
  EXPECT_NE(param.flag, nullptr);
}

Task<> spawn_many(Simulation& s, int n, std::size_t& peak) {
  for (int i = 0; i < n; ++i) {
    s.spawn("short", sleep_for(s, 1));
    co_await s.delay(2);
    peak = std::max(peak, s.debug_processes().size());
  }
}

TEST(ReapTest, FinishedProcessesDoNotAccumulate) {
  Simulation s;
  bool param_destroyed = false;
  s.spawn("first", finish_holding(s, DtorFlag(&param_destroyed)));
  std::size_t peak = 0;
  auto spawner = s.spawn("spawner", spawn_many(s, 10000, peak));
  s.run();
  EXPECT_EQ(spawner->state(), Process::State::Done);
  EXPECT_LE(peak, 2048u);
  // Reaping dropped the last reference to "first" long before shutdown, and
  // with it the coroutine frame that held the by-value parameter.
  EXPECT_TRUE(param_destroyed);
}

Task<> wait_on_event(Event& e, std::vector<int>& out, int id) {
  co_await e.wait();
  out.push_back(id);
}

TEST(KillTest, KillWhileWaitingOnEventDetaches) {
  Simulation s;
  Event e(s);
  std::vector<int> out;
  auto a = s.spawn("a", wait_on_event(e, out, 1));
  s.spawn("b", wait_on_event(e, out, 2));
  s.call_at(10, [&] { a->kill(); });
  s.call_at(20, [&] { e.set(); });
  s.run();
  EXPECT_EQ(out, (std::vector<int>{2}));
}

// --- kills in both states of every wait list -------------------------------
//
// Each structure parks several processes. One is killed while it is still
// listed. Another is killed in the instant it is woken: the wake-up runs
// first, and the kill runs in a callback queued behind it but ahead of the
// resume the wake-up scheduled.

/// A process that resumed: its id, when, and what it received.
struct Resumed {
  int id;
  Time at;
  int value = 0;
  bool operator==(const Resumed&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Resumed& r) {
  return os << "{id " << r.id << " at " << r.at << " value " << r.value << "}";
}

Task<> resume_on_event(Simulation& s, Event& e, int id,
                       std::vector<Resumed>& log) {
  co_await e.wait();
  log.push_back({id, s.now()});
}

Task<> hold_permit(Simulation& s, Semaphore& sem, int id,
                   std::vector<Resumed>& log) {
  co_await sem.acquire();
  log.push_back({id, s.now()});
  co_await s.delay(10);
  sem.release();
}

Task<> receive(Simulation& s, Channel<int>& ch, int id,
               std::vector<Resumed>& log) {
  const int v = co_await ch.recv();
  log.push_back({id, s.now(), v});
}

Task<> resume_on_join(Simulation& s, ProcessPtr target, int id,
                      std::vector<Resumed>& log) {
  co_await target->join();
  log.push_back({id, s.now()});
}

void expect_killed(const std::vector<ProcessPtr>& procs,
                   std::initializer_list<int> ids) {
  for (const int id : ids) {
    EXPECT_EQ(procs[id]->state(), Process::State::Killed) << "process " << id;
  }
}

TEST(KillTest, ListedAndWokenWaitersDetachFromEveryWaitList) {
  {
    // Event (a WaitQueue): 1 dies listed at t=10; set() at t=20 wakes 0, 2
    // and 3, and 2 dies before it resumes.
    Simulation s;
    Event e(s);
    std::vector<Resumed> log;
    std::vector<ProcessPtr> p;
    for (int id = 0; id < 4; ++id) {
      p.push_back(s.spawn("waiter", resume_on_event(s, e, id, log)));
    }
    s.run_until(0);
    s.call_at(10, [&] { p[1]->kill(); });
    s.call_at(20, [&] { e.set(); });
    s.call_at(20, [&] { p[2]->kill(); });
    s.run();
    EXPECT_EQ(log, (std::vector<Resumed>{{0, 20}, {3, 20}}));
    expect_killed(p, {1, 2});
  }
  {
    // One-permit Semaphore: 0 holds the permit until t=10, 2 dies listed at
    // t=5, and 1 dies in the instant 0's release hands it the permit. The
    // permit passes on to 3 in that instant, then to 4.
    Simulation s;
    Semaphore sem(s, 1);
    std::vector<Resumed> log;
    std::vector<ProcessPtr> p;
    for (int id = 0; id < 5; ++id) {
      p.push_back(s.spawn("acquirer", hold_permit(s, sem, id, log)));
    }
    s.run_until(0);  // 0's release timer is queued ahead of the kills
    s.call_at(5, [&] { p[2]->kill(); });
    s.call_at(10, [&] { p[1]->kill(); });
    s.run();
    EXPECT_EQ(log, (std::vector<Resumed>{{0, 0}, {3, 10}, {4, 20}}));
    expect_killed(p, {1, 2});
  }
  {
    // Channel receive: 1 dies listed at t=10; the value pushed at t=20 goes
    // to 0, which dies with it. The pushes at t=30 reach 2 and 3.
    Simulation s;
    Channel<int> ch(s);
    std::vector<Resumed> log;
    std::vector<ProcessPtr> p;
    for (int id = 0; id < 4; ++id) {
      p.push_back(s.spawn("receiver", receive(s, ch, id, log)));
    }
    s.run_until(0);
    s.call_at(10, [&] { p[1]->kill(); });
    s.call_at(20, [&] { ch.push(100); });
    s.call_at(20, [&] { p[0]->kill(); });
    s.call_at(30, [&] {
      ch.push(200);
      ch.push(300);
    });
    s.run();
    EXPECT_EQ(log, (std::vector<Resumed>{{2, 30, 200}, {3, 30, 300}}));
    EXPECT_EQ(ch.queued(), 0u);
    expect_killed(p, {0, 1});
  }
  {
    // join: 1 dies listed at t=10, before its target finishes at t=20; 2
    // dies in the instant the finish wakes it.
    Simulation s;
    std::vector<Resumed> log;
    auto target = s.spawn("target", sleep_for(s, 20));
    std::vector<ProcessPtr> p;
    for (int id = 0; id < 4; ++id) {
      p.push_back(s.spawn("joiner", resume_on_join(s, target, id, log)));
    }
    s.run_until(0);  // the target's timer is queued ahead of the kills
    s.call_at(10, [&] { p[1]->kill(); });
    s.call_at(20, [&] { p[2]->kill(); });
    s.run();
    EXPECT_EQ(log, (std::vector<Resumed>{{0, 20}, {3, 20}}));
    EXPECT_EQ(target->state(), Process::State::Done);
    expect_killed(p, {1, 2});
  }
}

// --- synchronization primitives ---------------------------------------------

TEST(EventTest, AlreadySetEventDoesNotBlock) {
  Simulation s;
  Event e(s);
  e.set();
  std::vector<int> out;
  s.spawn("a", wait_on_event(e, out, 1));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(EventTest, SetWakesAllWaiters) {
  Simulation s;
  Event e(s);
  std::vector<int> out;
  s.spawn("a", wait_on_event(e, out, 1));
  s.spawn("b", wait_on_event(e, out, 2));
  s.call_at(5, [&] { e.set(); });
  s.run();
  EXPECT_EQ(out.size(), 2u);
}

Task<> sem_user(Simulation& s, Semaphore& sem, Duration hold,
                std::vector<Time>& times) {
  co_await sem.acquire();
  times.push_back(s.now());
  co_await s.delay(hold);
  sem.release();
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulation s;
  Semaphore sem(s, 2);
  std::vector<Time> times;
  for (int i = 0; i < 4; ++i) s.spawn("u", sem_user(s, sem, 100, times));
  s.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 0);
  EXPECT_EQ(times[2], 100);
  EXPECT_EQ(times[3], 100);
}

TEST(SemaphoreTest, FifoHandOff) {
  Simulation s;
  Semaphore sem(s, 1);
  std::vector<Time> times;
  for (int i = 0; i < 3; ++i) s.spawn("u", sem_user(s, sem, 10, times));
  s.run();
  EXPECT_EQ(times, (std::vector<Time>{0, 10, 20}));
}

Task<> barrier_party(Simulation& s, Barrier& b, Duration arrive_at,
                     std::vector<Time>& done) {
  co_await s.delay(arrive_at);
  co_await b.arrive_and_wait();
  done.push_back(s.now());
}

TEST(BarrierTest, AllPartiesLeaveAtLastArrival) {
  Simulation s;
  Barrier b(s, 3);
  std::vector<Time> done;
  s.spawn("p1", barrier_party(s, b, 10, done));
  s.spawn("p2", barrier_party(s, b, 50, done));
  s.spawn("p3", barrier_party(s, b, 30, done));
  s.run();
  ASSERT_EQ(done.size(), 3u);
  for (const Time t : done) EXPECT_EQ(t, 50);
}

TEST(BarrierTest, IsCyclic) {
  Simulation s;
  Barrier b(s, 2);
  std::vector<Time> done;
  // Two rounds of two parties.
  s.spawn("p1", barrier_party(s, b, 10, done));
  s.spawn("p2", barrier_party(s, b, 20, done));
  s.run();
  s.spawn("p3", barrier_party(s, b, 5, done));
  s.spawn("p4", barrier_party(s, b, 15, done));
  s.run();
  ASSERT_EQ(done.size(), 4u);
}

Task<> chan_producer(Simulation& s, Channel<int>& c, int n) {
  for (int i = 0; i < n; ++i) {
    co_await s.delay(10);
    c.push(i);
  }
}

Task<> chan_consumer(Channel<int>& c, int n, std::vector<int>& out) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await c.recv();
    out.push_back(v);
  }
}

TEST(ChannelTest, FifoDelivery) {
  Simulation s;
  Channel<int> c(s);
  std::vector<int> out;
  s.spawn("prod", chan_producer(s, c, 5));
  s.spawn("cons", chan_consumer(c, 5, out));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, BufferedBeforeReceiverArrives) {
  Simulation s;
  Channel<int> c(s);
  c.push(41);
  c.push(42);
  std::vector<int> out;
  s.spawn("cons", chan_consumer(c, 2, out));
  s.run();
  EXPECT_EQ(out, (std::vector<int>{41, 42}));
}

// --- fluid flows ---------------------------------------------------------------

Task<> use_port(Simulation& s, FlowPort& p, std::uint64_t bytes,
                std::vector<Time>& done) {
  co_await Flow(s, p, bytes);
  done.push_back(s.now());
}

TEST(FlowTest, SingleFlowFullRate) {
  Simulation s;
  FlowPort p(100.0);  // 100 bytes/sec
  std::vector<Time> done;
  s.spawn("a", use_port(s, p, 200, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 2.0, 1e-6);
}

TEST(FlowTest, TwoFlowsShareFairly) {
  Simulation s;
  FlowPort p(100.0);
  std::vector<Time> done;
  s.spawn("a", use_port(s, p, 100, done));
  s.spawn("b", use_port(s, p, 100, done));
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // Both share 100 B/s: each runs at 50 B/s -> 2 s.
  EXPECT_NEAR(to_seconds(done[0]), 2.0, 1e-6);
  EXPECT_NEAR(to_seconds(done[1]), 2.0, 1e-6);
}

Task<> use_after(Simulation& s, FlowPort& p, Duration start,
                 std::uint64_t bytes, std::vector<Time>& done) {
  co_await s.delay(start);
  co_await Flow(s, p, bytes);
  done.push_back(s.now());
}

TEST(FlowTest, LateArrivalSlowsExisting) {
  Simulation s;
  FlowPort p(100.0);
  std::vector<Time> done;
  s.spawn("a", use_port(s, p, 200, done));               // alone until t=1
  s.spawn("b", use_after(s, p, seconds(1), 100, done));  // joins at t=1
  s.run();
  ASSERT_EQ(done.size(), 2u);
  // a: 100 bytes in first second (alone), then 50 B/s -> finishes t=3.
  // b: 100 bytes at 50 B/s from t=1 -> t=3... both complete at 3s, then the
  //    leftover instant reschedule resolves ties deterministically.
  EXPECT_NEAR(to_seconds(done[0]), 3.0, 1e-3);
  EXPECT_NEAR(to_seconds(done[1]), 3.0, 1e-3);
}

TEST(FlowTest, CancelledFlowFreesBandwidth) {
  Simulation s;
  FlowPort p(100.0);
  std::vector<Time> done;
  auto a = s.spawn("a", use_port(s, p, 1000, done));
  s.spawn("b", use_port(s, p, 100, done));
  s.call_at(seconds(1), [&] { a->kill(); });
  s.run();
  ASSERT_EQ(done.size(), 1u);
  // b: 50 bytes in [0,1] at 50 B/s, then full rate: 50 more bytes at 100 B/s
  // -> t = 1.5 s.
  EXPECT_NEAR(to_seconds(done[0]), 1.5, 1e-3);
}

TEST(FlowTest, ZeroByteFlowCompletesImmediately) {
  Simulation s;
  FlowPort p(100.0);
  std::vector<Time> done;
  s.spawn("a", use_port(s, p, 0, done));
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 0);
}

TEST(FlowTest, PortIsBusyUntilItsLastFlowEnds) {
  Simulation s;
  FlowPort p(100.0);
  std::vector<Time> done;
  s.spawn("a", use_port(s, p, 300, done));
  s.run_until(seconds(1));
  EXPECT_EQ(p.active_flows(), 1u);
  s.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(to_seconds(done[0]), 3.0, 1e-6);
  EXPECT_EQ(p.active_flows(), 0u);
}

// The equal-share resource the disks ran on before sim::Flow, kept as a
// reference model: one capacity, every active flow at capacity / flows,
// and all flows settled together and re-timed on each arrival, completion
// or kill.
class ReferenceResource {
 public:
  ReferenceResource(Simulation& sim, double capacity_bps)
      : sim_(&sim), cap_(capacity_bps) {}

  class UseAwaiter : public Blocker {
   public:
    UseAwaiter(ReferenceResource& r, std::uint64_t bytes)
        : res_(&r), remaining_(static_cast<double>(bytes)), bytes_(bytes) {}

    bool await_ready() const noexcept { return bytes_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      proc_ = res_->sim_->current_process();
      h_ = h;
      proc_->set_blocker(this);
      res_->settle();
      it_ = res_->flows_.insert(res_->flows_.end(), this);
      res_->reschedule_all();
    }
    void await_resume() const noexcept {}
    void cancel() noexcept override {
      res_->settle();
      res_->flows_.erase(it_);
      done_ev_.cancel();
      res_->reschedule_all();
    }

   private:
    friend class ReferenceResource;

    void complete() {
      ReferenceResource* r = res_;
      r->settle();
      r->flows_.erase(it_);
      Process* p = proc_;
      std::coroutine_handle<> h = h_;
      p->clear_blocker(this);
      r->reschedule_all();
      p->resume_leaf(h);
    }

    ReferenceResource* res_;
    double remaining_;
    std::uint64_t bytes_;
    Process* proc_ = nullptr;
    std::coroutine_handle<> h_{};
    std::list<UseAwaiter*>::iterator it_{};
    TimerHandle done_ev_;
  };

  UseAwaiter use(std::uint64_t bytes) { return UseAwaiter(*this, bytes); }

 private:
  void settle() {
    const Time now = sim_->now();
    const Duration dt = now - last_settle_;
    if (dt > 0 && !flows_.empty()) {
      const double moved = rate_per_flow_ * to_seconds(dt);
      for (UseAwaiter* f : flows_) {
        f->remaining_ -= moved;
        if (f->remaining_ < 0) f->remaining_ = 0;
      }
    }
    last_settle_ = now;
  }

  void reschedule_all() {
    rate_per_flow_ =
        flows_.empty() ? 0.0 : cap_ / static_cast<double>(flows_.size());
    for (UseAwaiter* f : flows_) {
      const Duration eta =
          transfer_time(static_cast<std::uint64_t>(f->remaining_ + 0.5),
                        rate_per_flow_);
      sim_->reschedule_in(f->done_ev_, eta, [f] { f->complete(); });
    }
  }

  Simulation* sim_;
  double cap_;
  std::list<UseAwaiter*> flows_;
  Time last_settle_ = 0;
  double rate_per_flow_ = 0;
};

constexpr double kReplayCapacity = 1e6;  // bytes/sec
constexpr Time kNotDone = -1;

struct ScriptedFlow {
  Time start = 0;
  std::uint64_t bytes = 0;
  Time kill_at = kNotDone;  // kNotDone: never killed
};

struct ReferenceModel {
  explicit ReferenceModel(Simulation& s) : res(s, kReplayCapacity) {}
  ReferenceResource::UseAwaiter use(Simulation&, std::uint64_t bytes) {
    return res.use(bytes);
  }
  ReferenceResource res;
};

struct FlowModel {
  explicit FlowModel(Simulation&) {}
  Flow use(Simulation& s, std::uint64_t bytes) { return Flow(s, port, bytes); }
  FlowPort port{kReplayCapacity};
};

template <class Model>
Task<> scripted_flow(Simulation& s, Model& m, ScriptedFlow f, Time& done) {
  co_await s.delay(f.start);
  co_await m.use(s, f.bytes);
  done = s.now();
}

/// Each flow's completion instant, or kNotDone for a killed one.
template <class Model>
std::vector<Time> replay(const std::vector<ScriptedFlow>& script) {
  Simulation s;
  Model m(s);
  std::vector<Time> done(script.size(), kNotDone);
  for (std::size_t i = 0; i < script.size(); ++i) {
    ProcessPtr p = s.spawn("flow", scripted_flow(s, m, script[i], done[i]));
    if (script[i].kill_at != kNotDone) {
      s.call_at(script[i].kill_at, [p] { p->kill(); });
    }
  }
  s.run();
  return done;
}

/// A few hundred flows at random instants (with ties), random sizes
/// including 0, and kills at random instants, one of them at the instant
/// another flow completes.
std::vector<ScriptedFlow> random_flow_script(std::uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<ScriptedFlow> script(300);
  for (std::size_t i = 0; i < script.size(); ++i) {
    ScriptedFlow& f = script[i];
    f.start = i > 0 && rng() % 8 == 0 ? script[i - 1].start
                                      : milliseconds(rng() % 10'000);
    f.bytes = rng() % 12 == 0 ? 0 : 1 + rng() % 400'000;
    if (rng() % 6 == 0) f.kill_at = 1 + static_cast<Time>(rng() % seconds(40));
  }
  // Kill a flow that is mid-transfer at the instant flow `k` completes.
  const std::vector<Time> probe = replay<ReferenceModel>(script);
  for (std::size_t k = script.size() / 2; k < script.size(); ++k) {
    const Time t = probe[k];
    if (t == kNotDone || script[k].bytes == 0) continue;
    for (std::size_t j = 0; j < script.size(); ++j) {
      if (j == k || script[j].kill_at != kNotDone) continue;
      if (script[j].start < t && probe[j] > t) {
        script[j].kill_at = t;
        return script;
      }
    }
  }
  ADD_FAILURE() << "no flow was mid-transfer at a completion instant";
  return script;
}

TEST(FlowTest, OnePortFlowsReplayTheReferenceResourceExactly) {
  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    const std::vector<ScriptedFlow> script = random_flow_script(seed);
    const std::vector<Time> want = replay<ReferenceModel>(script);
    const std::vector<Time> got = replay<FlowModel>(script);
    // Same survivors, and each completes at the same nanosecond.
    EXPECT_EQ(got, want);
    const auto killed = std::count(want.begin(), want.end(), kNotDone);
    EXPECT_GT(killed, 0);
    EXPECT_LT(killed, static_cast<std::ptrdiff_t>(script.size()) / 2);
  }
}

// --- determinism ---------------------------------------------------------------

Task<> noisy_worker(Simulation& s, FlowPort& p, int id,
                    std::vector<int>& order) {
  co_await s.delay(id % 3);
  co_await Flow(s, p, 50 + static_cast<std::uint64_t>(id) * 7);
  order.push_back(id);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalOrders) {
  auto run_once = [] {
    Simulation s;
    FlowPort p(1000.0);
    std::vector<int> order;
    for (int i = 0; i < 20; ++i) s.spawn("w", noisy_worker(s, p, i, order));
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace blobcr::sim
