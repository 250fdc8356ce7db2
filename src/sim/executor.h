#ifndef HCM_SIM_EXECUTOR_H_
#define HCM_SIM_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hcm::sim {

// Endpoint / site name. Endpoints may carry a component suffix after '#'
// (e.g. "B#tr" for the CM-Translator at site B); the part before '#' is the
// *base site*, which is the unit of scheduling affinity (one site = one
// simulated machine = one execution lane in the parallel executor).
using SiteId = std::string;

// Base site of an endpoint id ("B#tr" -> "B", "B" -> "B"); a view into
// `endpoint`.
inline std::string_view BaseSiteOf(std::string_view endpoint) {
  return endpoint.substr(0, endpoint.find('#'));
}

// Slot-based cancellation tokens for scheduled callbacks. Each cancellable
// schedule acquires a pooled (slot, generation) ticket instead of
// allocating a std::shared_ptr<bool>; the slot returns to the free list
// when the entry runs or is swept, and the generation bump makes any
// outstanding ticket for it stale. Steady-state scheduling is
// allocation-free once the pool has grown to the peak number of
// simultaneously pending cancellable entries.
class TimerPool {
 public:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  struct Ticket {
    uint32_t slot = kNoSlot;
    uint32_t gen = 0;

    bool valid() const { return slot != kNoSlot; }
  };

  Ticket Acquire();

  // Marks the ticket cancelled. Stale tickets (entry already ran or was
  // swept) are ignored.
  void Cancel(const Ticket& t);

  // True iff the ticket is still live and has been cancelled.
  bool IsCancelled(const Ticket& t) const;

  // Recycles the slot (the entry ran or was dropped from the queue).
  void Release(const Ticket& t);

  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint32_t gen = 0;
    bool cancelled = false;
  };
  bool Live(const Ticket& t) const {
    return t.valid() && t.slot < slots_.size() && slots_[t.slot].gen == t.gen;
  }
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

// Handle to a scheduled callback; lets the owner cancel it before it runs.
// Cancellation is cooperative: the entry stays in the queue but is skipped.
// The handle must not outlive the executor (its pool) that issued it.
class Timer {
 public:
  void Cancel() {
    cancel_issued_ = true;
    if (pool_ != nullptr) pool_->Cancel(ticket_);
  }
  bool cancelled() const {
    return cancel_issued_ ||
           (pool_ != nullptr && pool_->IsCancelled(ticket_));
  }

 private:
  friend class ParallelExecutor;
  Timer(TimerPool* pool, TimerPool::Ticket ticket)
      : pool_(pool), ticket_(ticket) {}
  TimerPool* pool_;
  TimerPool::Ticket ticket_;
  // Remembers a Cancel() issued through this handle, so cancelled() stays
  // true after the queue entry is swept and the pool slot recycled.
  bool cancel_issued_ = false;
};

}  // namespace hcm::sim

#endif  // HCM_SIM_EXECUTOR_H_
