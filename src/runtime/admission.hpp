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
//  * kSmallestFirst — smallest payload that fits runs first (SJF; best mean
//                     turnaround, can starve elephants under heavy load).
//  * kWeightedFair  — spectrum is split between the queued jobs in
//                     proportion to their weights, so heavy and light
//                     tenants are admitted side by side with proportional
//                     bands instead of one tenant draining the whole pool.
//  * kPriorityPreempt — highest JobSpec::priority runs first (ties on
//                     arrival).  Like FIFO the winner blocks the line, but
//                     the runtime backs the policy with step-boundary
//                     preemption: when the winner's minimum does not fit, it
//                     suspends running lower-priority executions instead of
//                     waiting for them to finish.
//
// Every tie breaks on submission order, which makes admission — and with
// the deterministic event queue, the entire multi-tenant run — reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/job.hpp"
#include "util/units.hpp"

namespace wrht::runtime {

enum class FairnessPolicy : std::uint8_t {
  kFifo,
  kSmallestFirst,
  kWeightedFair,
  kPriorityPreempt,
};

[[nodiscard]] const char* fairness_policy_name(FairnessPolicy policy);

/// A queued job as the admission policy sees it.
struct QueueEntry {
  JobId id = kNoJob;
  std::uint64_t seq = 0;  // submission order, the universal tie-break
  std::uint32_t min_wavelengths = 1;
  std::uint32_t requested_wavelengths = 1;  // normalized (never 0)
  double weight = 1.0;
  util::Bytes payload;
  std::vector<topo::NodeId> participants;
  std::int32_t priority = 0;
  /// When the job arrived — the clock priority aging runs against.
  util::Seconds arrival{0.0};
  /// Substrate the tenant pinned the job to.  These policies arbitrate the
  /// OPTICAL spectrum, so an electrically-pinned entry is invisible to them
  /// (it neither admits nor blocks the line) the same way a held one is;
  /// the runtime's electrical placement path serves it instead.
  SubstratePin pin = SubstratePin::kAny;
  /// Inside its fuse-window admission delay (BatcherConfig::fuse_window):
  /// invisible to every admission policy (it neither admits nor blocks the
  /// line) but still fusable as a peer when another lead is admitted.
  bool held = false;
  /// Placement memo of the host fabric's scan: the index in `participants`
  /// of a host the last failed probe found busy (the first participant
  /// before any probe).  A busy participant proves the entry unplaceable,
  /// so while this one stays busy a rescan checks one host, not the set.
  /// A hint only, never queue state, hence mutable.
  mutable std::uint32_t blocker = 0;
};

/// True when the optical admission policies may consider `entry` at all.
[[nodiscard]] inline bool optically_eligible(const QueueEntry& entry) {
  return !entry.held && entry.pin != SubstratePin::kElectricalOnly;
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

  /// Clear the fuse-window hold on job `id` and return its seq; nullopt
  /// when the job no longer sits in the queue (it was admitted or fused
  /// meanwhile).
  std::optional<std::uint64_t> release_hold(JobId id);

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

/// Ask `policy` for the next job to admit given the current spectrum state.
/// Returns nullopt when nothing in the queue should start now.  `now` and
/// `aging_half_life` feed priority aging (kPriorityPreempt only; the
/// defaults keep aging off).
[[nodiscard]] std::optional<AdmissionDecision> next_admission(
    const JobQueue& queue, FairnessPolicy policy,
    std::uint32_t largest_free_block, std::uint32_t free_total,
    util::Seconds now = util::Seconds(0.0),
    util::Seconds aging_half_life = util::Seconds(0.0));

/// Index of the entry kPriorityPreempt would admit next: highest EFFECTIVE
/// (aged) priority, oldest among equals; nullopt on an empty (or all-held)
/// queue.  The runtime's wait line for the optical ring picks the same
/// entry, so the job that triggers preemptions is always the job admission
/// will actually pick — and a held job triggers none.
[[nodiscard]] std::optional<std::size_t> priority_head(
    const JobQueue& queue, util::Seconds now = util::Seconds(0.0),
    util::Seconds aging_half_life = util::Seconds(0.0));

}  // namespace wrht::runtime
