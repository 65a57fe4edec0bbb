#include "runtime/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "util/random.hpp"

namespace wrht::runtime {
namespace {

QueueEntry entry(JobId id, std::uint64_t seq, std::uint32_t min,
                 std::uint32_t requested) {
  return QueueEntry{id, seq, min, requested, util::megabytes(1), {0, 1}};
}

struct Admission {
  std::size_t queue_index = 0;
  std::uint32_t grant = 0;
};

/// The ring line's head under the band grant rule, aging off (the clock
/// then does not matter).
std::optional<Admission> admit(const JobQueue& queue, FairnessPolicy policy,
                               std::uint32_t largest_free_block) {
  const QueuedHead head = queued_head(queue, policy, Line::kRing,
                                     util::Seconds(0.0), util::Seconds(0.0));
  if (head.entry == nullptr) return std::nullopt;
  const std::optional<std::uint32_t> grant =
      band_grant(*head.entry, largest_free_block);
  if (!grant) return std::nullopt;
  return Admission{head.index, *grant};
}

TEST(AdmissionFifo, HeadGetsRequestCappedByFreeBlock) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/2, /*requested=*/8));
  const auto d =
      admit(queue, FairnessPolicy::kFifo, /*largest=*/6);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->queue_index, 0u);
  EXPECT_EQ(d->grant, 6u);
}

TEST(AdmissionFifo, HeadOfLineBlocks) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/8, /*requested=*/8));
  queue.push(entry(1, 1, /*min=*/2, /*requested=*/2));
  // The younger job fits, but FIFO refuses to jump the line.
  EXPECT_FALSE(admit(queue, FairnessPolicy::kFifo, 4));
}

TEST(AdmissionFifo, BelowMinimumDeclines) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/4, /*requested=*/8));
  EXPECT_FALSE(admit(queue, FairnessPolicy::kFifo, 3));
}

QueueEntry priority_entry(JobId id, std::uint64_t seq, std::int32_t priority,
                          std::uint32_t min = 1, std::uint32_t requested = 4) {
  QueueEntry e = entry(id, seq, min, requested);
  e.priority = priority;
  return e;
}

TEST(AdmissionPriority, HighestPriorityWinsTiesOnArrival) {
  JobQueue queue;
  queue.push(priority_entry(0, 0, /*priority=*/1));
  queue.push(priority_entry(1, 1, /*priority=*/5));
  queue.push(priority_entry(2, 2, /*priority=*/5));
  const auto d =
      admit(queue, FairnessPolicy::kPriorityPreempt, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 1u);
}

TEST(AdmissionPriority, WinnerBlocksTheLine) {
  // The high-priority job's minimum does not fit; a low-priority job that
  // would fit must NOT slip into the band the runtime is preempting for it.
  JobQueue queue;
  queue.push(priority_entry(0, 0, /*priority=*/9, /*min=*/8, 8));
  queue.push(priority_entry(1, 1, /*priority=*/0, /*min=*/1, 1));
  EXPECT_FALSE(admit(queue, FairnessPolicy::kPriorityPreempt, 4));
}

TEST(JobQueue, TakeRemovesAndReturns) {
  JobQueue queue;
  queue.push(entry(0, 0, 1, 1));
  queue.push(entry(1, 1, 1, 1));
  queue.push(entry(2, 2, 1, 1));
  const QueueEntry taken = queue.take(1);
  EXPECT_EQ(taken.id, 1u);
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.at(0).id, 0u);
  EXPECT_EQ(queue.at(1).id, 2u);
}

TEST(JobQueue, PushKeepsSeqOrderAfterHeadTakes) {
  JobQueue queue;
  for (std::uint64_t seq = 100; seq < 300; seq += 2) {
    queue.push(entry(static_cast<JobId>(seq), seq, 1, 1));
  }
  // Advance the head far enough that the dead prefix gets compacted, then
  // push out of order: after the tail, older than everything queued,
  // between two queued entries, and an electrically-pinned entry older
  // still.
  for (std::uint64_t seq = 100; seq < 240; seq += 2) {
    EXPECT_EQ(queue.take(0).seq, seq);
  }
  queue.push(entry(500, 500, 1, 1));
  queue.push(entry(50, 50, 1, 1));
  queue.push(entry(245, 245, 1, 1));
  QueueEntry pinned = entry(7, 7, 1, 1);
  pinned.pin = SubstratePin::kElectricalOnly;
  queue.push(pinned);
  ASSERT_EQ(queue.size(), 34u);
  for (std::size_t i = 1; i < queue.size(); ++i) {
    EXPECT_LT(queue.at(i - 1).seq, queue.at(i).seq) << "at index " << i;
  }
  // FIFO skips the pinned entry and admits the oldest eligible one.
  const auto d = admit(queue, FairnessPolicy::kFifo, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).seq, 50u);
}

TEST(Admission, EmptyQueueOrNoSpectrumDeclines) {
  JobQueue queue;
  EXPECT_FALSE(admit(queue, FairnessPolicy::kFifo, 8));
  queue.push(entry(0, 0, 1, 1));
  EXPECT_FALSE(admit(queue, FairnessPolicy::kFifo, 0));
}

TEST(Admission, LinesSplitOnTheElectricalPin) {
  // The ring's line holds every entry not pinned to the electrical fabric;
  // the host fabric's line holds the pinned ones, and nothing else.
  JobQueue queue;
  QueueEntry pinned = priority_entry(0, 0, /*priority=*/0);
  pinned.pin = SubstratePin::kElectricalOnly;
  queue.push(pinned);
  QueueEntry optical = priority_entry(1, 1, /*priority=*/0);
  optical.pin = SubstratePin::kOpticalOnly;
  queue.push(optical);
  queue.push(priority_entry(2, 2, /*priority=*/7));
  const auto head = [&](FairnessPolicy policy, Line line) {
    const QueuedHead found = queued_head(queue, policy, line,
                                         util::Seconds(0.0), util::Seconds(0.0));
    return found.entry != nullptr ? found.entry->id : kNoJob;
  };
  EXPECT_EQ(head(FairnessPolicy::kFifo, Line::kRing), 1u);
  EXPECT_EQ(head(FairnessPolicy::kPriorityPreempt, Line::kRing), 2u);
  EXPECT_EQ(head(FairnessPolicy::kFifo, Line::kHost), 0u);
  EXPECT_EQ(head(FairnessPolicy::kPriorityPreempt, Line::kHost), 0u);
  queue.take(0);
  EXPECT_EQ(head(FairnessPolicy::kPriorityPreempt, Line::kHost), kNoJob);
}

TEST(Admission, FifoHeadReadsOnlyUpToTheFirstWaiter) {
  JobQueue queue;
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    QueueEntry e = entry(static_cast<JobId>(seq), seq, 1, 1);
    if (seq < 3) e.pin = SubstratePin::kElectricalOnly;
    queue.push(e);
  }
  obs::Counter reads;
  const auto head =
      queued_head(queue, FairnessPolicy::kFifo, Line::kRing,
                  util::Seconds(0.0), util::Seconds(0.0), &reads);
  ASSERT_NE(head.entry, nullptr);
  EXPECT_EQ(head.index, 3u);
  EXPECT_EQ(head.entry, &queue.at(3));
  EXPECT_EQ(reads.value(), 4u);
  // Priority order has no early exit: every entry is read.
  (void)queued_head(queue, FairnessPolicy::kPriorityPreempt, Line::kRing,
                    util::Seconds(0.0), util::Seconds(0.0), &reads);
  EXPECT_EQ(reads.value(), 14u);
}

TEST(Admission, HeadIsTheFirstWaiterInTheDocumentedOrder) {
  // Differential check of queued_head against a reference built from the
  // documented key: the first element of the line's waiters after a
  // std::stable_sort by seq (FIFO) or by aged priority descending, then seq
  // (kPriorityPreempt).
  util::Rng rng(20261020);
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE(round);
    JobQueue queue;
    const std::size_t size = rng.next_below(12);
    const util::Seconds now = util::milliseconds(10.0);
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < size; ++i) {
      seq += 1 + rng.next_below(3);
      QueueEntry e = entry(static_cast<JobId>(i), seq, 1, 1);
      e.pin = static_cast<SubstratePin>(rng.next_below(3));
      e.priority = static_cast<std::int32_t>(rng.next_below(6)) - 2;
      e.arrival = util::milliseconds(static_cast<double>(rng.next_below(11)));
      queue.push(e);
    }
    for (const util::Seconds half_life :
         {util::Seconds(0.0), util::milliseconds(1.0)}) {
      for (const FairnessPolicy policy :
           {FairnessPolicy::kFifo, FairnessPolicy::kPriorityPreempt}) {
        for (const Line line : {Line::kRing, Line::kHost}) {
          // Ring waiters are the entries not pinned to the electrical
          // fabric; host-fabric waiters are the pinned ones.
          std::vector<QueueEntry> waiters;
          for (std::size_t i = 0; i < queue.size(); ++i) {
            const bool pinned =
                queue.at(i).pin == SubstratePin::kElectricalOnly;
            if (pinned == (line == Line::kHost)) {
              waiters.push_back(queue.at(i));
            }
          }
          const auto aged = [&](const QueueEntry& e) {
            return aged_priority(e.priority, e.arrival, now, half_life);
          };
          std::stable_sort(
              waiters.begin(), waiters.end(),
              [&](const QueueEntry& a, const QueueEntry& b) {
                if (policy == FairnessPolicy::kPriorityPreempt &&
                    aged(a) != aged(b)) {
                  return aged(a) > aged(b);
                }
                return a.seq < b.seq;
              });
          const QueuedHead head =
              queued_head(queue, policy, line, now, half_life);
          ASSERT_EQ(head.entry != nullptr, !waiters.empty());
          if (head.entry == nullptr) continue;
          EXPECT_EQ(head.entry, &queue.at(head.index));
          EXPECT_EQ(head.entry->seq, waiters.front().seq);
          EXPECT_EQ(head.priority, aged(waiters.front()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace wrht::runtime
