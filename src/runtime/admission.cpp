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

namespace {

/// FIFO's line head: the oldest eligible entry (an electrically-pinned one
/// is not asking for spectrum at all, so it neither admits nor blocks the
/// line).  Entries are stored in seq order (JobQueue::push), so the first
/// eligible entry IS the min-seq one: O(prefix of pinned entries).
std::optional<std::size_t> fifo_head(const JobQueue& queue) {
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (optically_eligible(queue.at(i))) return i;
  }
  return std::nullopt;
}

/// kPriorityPreempt's line head: highest EFFECTIVE (aged) priority, oldest
/// among equals; nullopt when no entry is eligible.
std::optional<std::size_t> priority_head(const JobQueue& queue,
                                         util::Seconds now,
                                         util::Seconds aging_half_life) {
  std::optional<std::size_t> head;
  std::int32_t head_priority = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QueueEntry& job = queue.at(i);
    if (!optically_eligible(job)) continue;
    const std::int32_t effective =
        aged_priority(job.priority, job.arrival, now, aging_half_life);
    if (!head || effective > head_priority ||
        (effective == head_priority && job.seq < queue.at(*head).seq)) {
      head = i;
      head_priority = effective;
    }
  }
  return head;
}

}  // namespace

std::optional<AdmissionDecision> next_admission(
    const JobQueue& queue, FairnessPolicy policy,
    std::uint32_t largest_free_block, util::Seconds now,
    util::Seconds aging_half_life) {
  if (queue.empty() || largest_free_block == 0) return std::nullopt;
  // The head owns the line under both policies: a younger or less urgent
  // job never slips past it into a band the runtime is freeing (or, under
  // kPriorityPreempt, preempting) for it.
  const std::optional<std::size_t> head =
      policy == FairnessPolicy::kPriorityPreempt
          ? priority_head(queue, now, aging_half_life)
          : fifo_head(queue);
  if (!head) return std::nullopt;
  const QueueEntry& job = queue.at(*head);
  const std::uint32_t grant =
      std::min(job.requested_wavelengths, largest_free_block);
  if (grant < job.min_wavelengths) return std::nullopt;
  return AdmissionDecision{*head, grant};
}

}  // namespace wrht::runtime
