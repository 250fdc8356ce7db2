#include "src/sim/executor.h"

namespace hcm::sim {

TimerPool::Ticket TimerPool::Acquire() {
  Ticket t;
  if (!free_.empty()) {
    t.slot = free_.back();
    free_.pop_back();
  } else {
    t.slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[t.slot].cancelled = false;
  t.gen = slots_[t.slot].gen;
  return t;
}

void TimerPool::Cancel(const Ticket& t) {
  if (Live(t)) slots_[t.slot].cancelled = true;
}

bool TimerPool::IsCancelled(const Ticket& t) const {
  return Live(t) && slots_[t.slot].cancelled;
}

void TimerPool::Release(const Ticket& t) {
  if (!Live(t)) return;
  ++slots_[t.slot].gen;  // invalidates outstanding tickets for the slot
  free_.push_back(t.slot);
}

}  // namespace hcm::sim
