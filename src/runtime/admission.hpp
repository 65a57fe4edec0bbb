// Admission control: which queued job runs next, and with how many
// wavelengths.
//
// The queue holds jobs that have arrived but hold no spectrum.  Whenever
// spectrum frees up (a job completes) or the queue grows (a job arrives),
// the runtime asks the policy for the next admission; it keeps asking until
// the policy declines, so several jobs can be admitted at the same instant
// and execute concurrently on disjoint bands.
//
// Policies:
//  * kFifo          — strict arrival order; the head blocks the line until
//                     its minimum demand fits (no starvation, HOL blocking).
//  * kPriorityPreempt — highest JobSpec::priority runs first (ties on
//                     arrival).  Like FIFO the winner blocks the line, but
//                     the runtime backs the policy with step-boundary
//                     preemption: when the winner's minimum does not fit, it
//                     suspends running lower-priority executions instead of
//                     waiting for them to finish.
//
// Either way the line's head is granted its request, capped by the widest
// free run, or nothing when that run is below its minimum.  Every tie
// breaks on submission order, which makes admission — and with the
// deterministic event queue, the entire multi-tenant run — reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

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
  /// Substrate the tenant pinned the job to.  These policies arbitrate the
  /// OPTICAL spectrum, so an electrically-pinned entry is invisible to them
  /// (it neither admits nor blocks the line); the runtime's electrical
  /// placement path serves it instead.
  SubstratePin pin = SubstratePin::kAny;
  /// Placement memo of the host fabric's scan: the index in `participants`
  /// of a host the last failed probe found busy (the first participant
  /// before any probe).  A busy participant proves the entry unplaceable,
  /// so while this one stays busy a rescan checks one host, not the set.
  /// A hint only, never queue state, hence mutable.
  mutable std::uint32_t blocker = 0;
};

/// True when the optical admission policies may consider `entry` at all.
[[nodiscard]] inline bool optically_eligible(const QueueEntry& entry) {
  return entry.pin != SubstratePin::kElectricalOnly;
}

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

struct AdmissionDecision {
  std::size_t queue_index = 0;
  /// Band width to grant: min <= grant <= requested, and the arbiter is
  /// guaranteed to have a contiguous free run of this width.
  std::uint32_t grant = 0;
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

/// Ask `policy` for the next job to admit given the widest free run.
/// Returns nullopt when nothing in the queue should start now.  Under
/// kPriorityPreempt the line's head is the highest EFFECTIVE priority at
/// `now` (aged by `aging_half_life`, <= 0 for none), oldest among equals —
/// the entry the runtime's wait line for the optical ring picks too, so the
/// job that triggers preemptions is always the job admission will take.
[[nodiscard]] std::optional<AdmissionDecision> next_admission(
    const JobQueue& queue, FairnessPolicy policy,
    std::uint32_t largest_free_block, util::Seconds now,
    util::Seconds aging_half_life);

}  // namespace wrht::runtime
