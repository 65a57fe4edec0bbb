#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace wrht::sim {

std::uint64_t EventQueue::push(util::Seconds when, EventCallback callback) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.callback = std::move(callback);
  s.live = true;
  const std::uint64_t handle =
      static_cast<std::uint64_t>(slot) |
      (static_cast<std::uint64_t>(s.generation) << 32);
  heap_.push_back(Entry{when, next_sequence_++, handle});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return handle;
}

bool EventQueue::cancel(std::uint64_t handle) {
  const std::uint32_t slot = slot_of(handle);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.live || s.generation != generation_of(handle)) return false;
  retire_slot(slot);
  --live_;
  // The heap entry stays behind as a tombstone until drop_dead_entries or
  // compaction reaps it.
  ++dead_entries_;
  maybe_compact();
  return true;
}

bool EventQueue::entry_dead(const Entry& entry) const {
  const Slot& s = slots_[slot_of(entry.handle)];
  return !s.live || s.generation != generation_of(entry.handle);
}

void EventQueue::drop_dead_entries() const {
  while (!heap_.empty() && entry_dead(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    --dead_entries_;
  }
}

void EventQueue::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.callback = nullptr;
  s.live = false;
  // Bumping the generation invalidates every outstanding handle to this
  // slot, so it is safe to hand the slot out again immediately.
  ++s.generation;
  free_.push_back(slot);
}

void EventQueue::maybe_compact() {
  // Rebuilding the heap is linear, so amortized cost stays O(1) per cancel
  // as long as we only do it when tombstones dominate.  make_heap over the
  // surviving (time, sequence, handle) entries reproduces the exact pop
  // order — the comparator never looks at heap layout.
  if (heap_.size() < 64 || dead_entries_ * 2 <= heap_.size()) return;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& entry) {
                               return entry_dead(entry);
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_entries_ = 0;
}

bool EventQueue::empty() const {
  drop_dead_entries();
  return heap_.empty();
}

util::Seconds EventQueue::next_time() const {
  drop_dead_entries();
  WRHT_REQUIRE(!heap_.empty(), "EventQueue::next_time on empty queue");
  return heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_entries();
  WRHT_REQUIRE(!heap_.empty(), "EventQueue::pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  const std::uint32_t slot = slot_of(entry.handle);
  Popped popped{entry.time, std::move(slots_[slot].callback)};
  retire_slot(slot);
  --live_;
  return popped;
}

}  // namespace wrht::sim
