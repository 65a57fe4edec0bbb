#include "runtime/admission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace wrht::runtime {

const char* fairness_policy_name(FairnessPolicy policy) {
  switch (policy) {
    case FairnessPolicy::kFifo:
      return "fifo";
    case FairnessPolicy::kPriorityPreempt:
      return "priority-preempt";
  }
  return "?";
}

void JobQueue::push(QueueEntry entry) {
  // After every queued entry with seq <= entry.seq: an append unless the
  // entry is older than the tail.
  const auto pos = std::upper_bound(
      entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(),
      entry.seq,
      [](std::uint64_t seq, const QueueEntry& e) { return seq < e.seq; });
  entries_.insert(pos, std::move(entry));
}

std::size_t JobQueue::lower_bound(std::uint64_t seq) const {
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(head_);
  const auto pos = std::lower_bound(
      first, entries_.end(), seq,
      [](const QueueEntry& e, std::uint64_t s) { return e.seq < s; });
  return static_cast<std::size_t>(pos - first);
}

QueueEntry JobQueue::take(std::size_t index) {
  WRHT_REQUIRE(index < size(), "JobQueue: take(" << index << ") out of range");
  if (index == 0) {
    QueueEntry entry = std::move(entries_[head_]);
    ++head_;
    // Amortized prefix compaction: erase the dead front only once it is
    // both sizable and at least half the storage, so a million-job backlog
    // pays O(1) per head take instead of O(backlog).
    if (head_ >= 64 && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(),
                     entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return entry;
  }
  const std::size_t pos = head_ + index;
  QueueEntry entry = std::move(entries_[pos]);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(pos));
  return entry;
}

std::int32_t aged_priority(std::int32_t priority, util::Seconds waiting_since,
                           util::Seconds now, util::Seconds half_life) {
  if (half_life.value() <= 0.0) return priority;
  const double wait = (now - waiting_since).value();
  if (wait <= 0.0) return priority;
  // One class per half-life of wait, capped: the boost must eventually top
  // out (so a forgotten tenant cannot overflow the type), but 64 classes is
  // far above any real priority spread in the system.
  const double classes = std::min(std::floor(wait / half_life.value()), 64.0);
  const std::int64_t aged = static_cast<std::int64_t>(priority) +
                            static_cast<std::int64_t>(classes);
  return static_cast<std::int32_t>(
      std::min<std::int64_t>(aged, std::numeric_limits<std::int32_t>::max()));
}

QueuedHead queued_head(const JobQueue& queue, FairnessPolicy policy,
                       Line line, util::Seconds now,
                       util::Seconds aging_half_life, obs::Counter* reads) {
  // The queue is in seq order, so a strict > keeps the earliest of equals:
  // the first waiter in the fairness order (see ahead).
  QueuedHead head;
  std::size_t read = 0;
  while (read < queue.size()) {
    const QueueEntry& entry = queue.at(read++);
    if (!in_line(entry, line)) continue;
    const std::int32_t aged =
        aged_priority(entry.priority, entry.arrival, now, aging_half_life);
    if (head.entry == nullptr || aged > head.priority) {
      head = {&entry, read - 1, aged};
    }
    if (policy == FairnessPolicy::kFifo) break;
  }
  obs::inc(reads, read);
  return head;
}

}  // namespace wrht::runtime
