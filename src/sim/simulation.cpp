#include "sim/simulation.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/process.h"

namespace blobcr::sim {

void TimerHandle::cancel() {
  if (sim_ != nullptr) sim_->cancel(*this);
}

namespace {

bool before(const auto& a, const auto& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;  // FIFO among equal times
}

}  // namespace

Simulation::Simulation() = default;

Simulation::~Simulation() { shutdown(); }

void Simulation::shutdown() {
  for (auto it = processes_.rbegin(); it != processes_.rend(); ++it) {
    if (*it && !(*it)->finished()) (*it)->kill();
  }
  processes_.clear();
  // Callbacks die after the queue is empty, in case one's destructor
  // schedules.
  const std::vector<Entry> dropped = std::exchange(heap_, {});
  for (const Entry& e : dropped) release(e.slot);
}

TimerHandle Simulation::call_at(Time t, std::function<void()> fn) {
  assert(t >= now_);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    assert(recs_.size() < UINT32_MAX);
    slot = static_cast<std::uint32_t>(recs_.size());
    recs_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  recs_[slot].fn = std::move(fn);
  heap_.push_back(Entry{t, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return TimerHandle(this, slot, recs_[slot].gen);
}

void Simulation::reschedule_in(TimerHandle& h, Duration d,
                               std::function<void()> fn) {
  if (!pending(h)) {
    h = call_in(d, std::move(fn));
    return;
  }
  Rec& r = recs_[h.slot_];
  r.fn = std::move(fn);
  Entry& e = heap_[r.pos];
  const Time old_t = e.t;
  e.t = now_ + d;
  e.seq = next_seq_++;
  // The fresh seq is the largest queued, so the key grows unless t fell.
  if (e.t < old_t) {
    sift_up(r.pos);
  } else {
    sift_down(r.pos);
  }
}

void Simulation::cancel(const TimerHandle& h) {
  if (!pending(h)) return;
  erase_at(recs_[h.slot_].pos);
  release(h.slot_);  // the callback dies here, with the queue consistent
}

std::function<void()> Simulation::release(std::uint32_t slot) {
  Rec& r = recs_[slot];
  ++r.gen;
  free_slots_.push_back(slot);
  return std::exchange(r.fn, nullptr);
}

void Simulation::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void Simulation::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

void Simulation::erase_at(std::size_t i) {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  place(i, last);
  if (i > 0 && before(last, heap_[(i - 1) / 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

bool Simulation::step() {
  if (heap_.empty()) return false;
  const Entry top = heap_.front();
  erase_at(0);
  assert(top.t >= now_);
  now_ = top.t;
  ++events_processed_;
  const std::function<void()> fn = release(top.slot);
  fn();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

bool Simulation::run_until(Time t) {
  while (!heap_.empty()) {
    if (heap_.front().t > t) {
      now_ = t;
      return true;
    }
    step();
  }
  now_ = std::max(now_, t);
  return false;
}

std::size_t Simulation::live_process_count() const {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (p && !p->finished()) ++n;
  }
  return n;
}

void Simulation::reap_finished() {
  // The last reference to a finished process may be ours: dropping it
  // destroys the coroutine frame, whose by-value parameters' destructors
  // run outside the erase.
  std::vector<ProcessPtr> finished;
  for (const ProcessPtr& p : processes_) {
    if (p->finished()) finished.push_back(p);
  }
  std::erase_if(processes_, [](const ProcessPtr& p) { return p->finished(); });
  finished.clear();
  for (const ProcessPtr& p : processes_) {
    std::erase_if(p->children_, [](const std::weak_ptr<Process>& c) {
      return c.expired();
    });
  }
  reap_at_ = std::max(kReapFloor, 2 * processes_.size());
}

ProcessPtr Simulation::spawn(std::string name, Task<> body) {
  assert(body.valid());
  if (processes_.size() >= reap_at_) reap_finished();
  ProcessPtr p(new Process(*this, std::move(name)));
  p->root_ = std::move(body);
  if (current_) current_->children_.push_back(p);
  p->root_.handle().promise().on_done = [raw = p.get()] {
    raw->on_root_done();
  };
  processes_.push_back(p);
  call_at(now_, [wp = std::weak_ptr<Process>(p)] {
    if (auto sp = wp.lock(); sp && !sp->finished()) sp->start();
  });
  return p;
}

}  // namespace blobcr::sim
