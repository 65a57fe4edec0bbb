// Admission control: the fairness policy, defined once as an order over a
// fabric's line of waiters, and the band its head is granted.
//
// The queue holds jobs that have arrived but hold no capacity.  The optical
// ring's line holds every queued entry not pinned to the electrical fabric,
// the host fabric's line the electrically pinned ones.  The policy orders a
// line:
//  * kFifo          — by submission order (seq); the head blocks the line
//                     until its minimum fits (no starvation, HOL blocking).
//  * kPriorityPreempt — by aged priority, highest first, then seq.  The
//                     head blocks the line too, but the runtime backs it
//                     with step-boundary preemption of lower-priority
//                     executions instead of waiting for them to finish.
// Suspended executions wait by effective (aged) priority, then suspension
// order, under both policies.  Every line question — who is admitted next,
// who drives preemptions, whose urgency guards a placement, a resume or a
// shrink — is read from queued_head and the runtime's suspended_head.  Ties
// break on submission or suspension order, which makes admission — and
// with the deterministic event queue, the entire multi-tenant run —
// reproducible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/job.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

enum class FairnessPolicy : std::uint8_t {
  kFifo,
  kPriorityPreempt,
};

[[nodiscard]] const char* fairness_policy_name(FairnessPolicy policy);

/// A queued job as the admission policy sees it.
struct QueueEntry {
  JobId id = kNoJob;
  std::uint64_t seq = 0;  // submission order, the universal tie-break
  std::uint32_t min_wavelengths = 1;
  std::uint32_t requested_wavelengths = 1;  // normalized (never 0)
  util::Bytes payload;
  std::vector<topo::NodeId> participants;
  std::int32_t priority = 0;
  /// When the job arrived — the clock priority aging runs against.
  util::Seconds arrival{0.0};
  /// Substrate the tenant pinned the job to; it picks the entry's line (see
  /// Line).
  SubstratePin pin = SubstratePin::kAny;
  /// Placement memo of the host fabric's scan: the index in `participants`
  /// of a host the last failed probe found busy (the first participant
  /// before any probe).  A busy participant proves the entry unplaceable,
  /// so while this one stays busy a rescan checks one host, not the set.
  /// A hint only, never queue state, hence mutable.
  mutable std::uint32_t blocker = 0;
};

class JobQueue {
 public:
  /// Insert `entry` in seq order.  Removals preserve relative order, so
  /// at(i).seq is increasing in i — the invariant the FIFO scan's early
  /// exit rests on.  The runtime pushes in submission order, which makes
  /// every push an append.
  void push(QueueEntry entry);
  [[nodiscard]] bool empty() const { return head_ == entries_.size(); }
  [[nodiscard]] std::size_t size() const { return entries_.size() - head_; }
  [[nodiscard]] const QueueEntry& at(std::size_t i) const {
    return entries_[head_ + i];
  }

  /// Logical index of the first entry with seq >= `seq` (size() when
  /// none): a binary search, since the queue is in seq order.
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const;

  /// Remove and return the entry at logical `index`.  A take(0) — the
  /// FIFO/backlog-drain hot path — is O(1): the head offset advances past
  /// the slot and the dead prefix is erased in amortized batches.
  /// Mid-queue takes fall back to the positional erase.
  QueueEntry take(std::size_t index);

 private:
  /// Queued entries live at entries_[head_ ..); slots below head_ were
  /// taken from the front and await the amortized prefix erase.
  std::vector<QueueEntry> entries_;
  std::size_t head_ = 0;
};

/// A waiting job's effective priority under priority aging: the raw
/// priority plus one class per `half_life` of sim-clock wait since
/// `waiting_since`, capped at +64 classes (still strictly monotone in wait
/// up to the cap, and immune to int overflow).  half_life <= 0 disables
/// aging and returns the raw priority — the historical behavior.
[[nodiscard]] std::int32_t aged_priority(std::int32_t priority,
                                         util::Seconds waiting_since,
                                         util::Seconds now,
                                         util::Seconds half_life);

/// Which fabric's waiters a line holds: the optical ring's (every entry not
/// pinned to the electrical fabric — a kAny job has the ring's line working
/// for it) or the host fabric's (the electrically pinned entries).
enum class Line : std::uint8_t { kRing, kHost };

[[nodiscard]] inline bool in_line(const QueueEntry& entry, Line line) {
  return (entry.pin == SubstratePin::kElectricalOnly) == (line == Line::kHost);
}

/// A waiter's key in the fairness order: its priority and its position —
/// seq (or queue index, which ascends with it) for a queued entry,
/// suspension order for a suspended execution.
struct LineKey {
  std::int32_t priority = 0;
  std::uint64_t position = 0;
};

/// The fairness order: higher priority first, earlier position among equals.
[[nodiscard]] inline bool ahead(const LineKey& a, const LineKey& b) {
  return a.priority != b.priority ? a.priority > b.priority
                                  : a.position < b.position;
}

/// A queued line's head and its aged priority; null at the lowest priority
/// when the line is empty.
struct QueuedHead {
  const QueueEntry* entry = nullptr;
  std::size_t index = 0;
  std::int32_t priority = std::numeric_limits<std::int32_t>::min();
};

/// The first waiter of `line` in `policy`'s order at `now` (priorities aged
/// by `aging_half_life`, <= 0 for none).  Under kFifo the order is the
/// queue's own, so the walk stops at the first waiter.  `reads`, when set,
/// counts the entries read.
[[nodiscard]] QueuedHead queued_head(const JobQueue& queue,
                                     FairnessPolicy policy, Line line,
                                     util::Seconds now,
                                     util::Seconds aging_half_life,
                                     obs::Counter* reads = nullptr);

/// The band grant rule: `entry`'s request capped by the widest free run, or
/// nullopt when that is below its minimum.
[[nodiscard]] inline std::optional<std::uint32_t> band_grant(
    const QueueEntry& entry, std::uint32_t largest_free_block) {
  const std::uint32_t grant =
      std::min(entry.requested_wavelengths, largest_free_block);
  if (grant < entry.min_wavelengths) return std::nullopt;
  return grant;
}

}  // namespace wrht::runtime
