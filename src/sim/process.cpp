#include "sim/process.h"

#include <utility>

namespace blobcr::sim {

Process::Process(Simulation& sim, std::string name)
    : sim_(&sim), name_(std::move(name)) {}

void Process::start() { resume_leaf(root_.handle()); }

void Process::resume_leaf(std::coroutine_handle<> h) {
  Process* prev = sim_->current_;
  sim_->current_ = this;
  h.resume();
  sim_->current_ = prev;
}

void Process::on_root_done() {
  error_ = root_.handle().promise().error;
  finish(error_ ? State::Failed : State::Done);
}

void Process::kill() {
  if (finished()) return;
  assert(sim_->current_ != this && "a process must not kill itself");
  // Children first: they are independent root frames whose resources may
  // derive from ours.
  auto children = std::move(children_);
  for (auto& weak_child : children) {
    if (auto child = weak_child.lock()) child->kill();
  }
  if (blocker_ != nullptr) {
    blocker_->cancel();
    blocker_ = nullptr;
  }
  // Destroying the root frame cascades through nested Task members and
  // releases held RAII guards (permits).
  root_.reset();
  finish(State::Killed);
}

void Process::finish(State s) {
  state_ = s;
  auto joiners = std::move(joiners_);
  joiners_.clear();
  for (JoinAwaiter* j : joiners) j->wake();
}

}  // namespace blobcr::sim
