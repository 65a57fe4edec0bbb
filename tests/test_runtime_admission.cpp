#include "runtime/admission.hpp"

#include <gtest/gtest.h>

namespace wrht::runtime {
namespace {

QueueEntry entry(JobId id, std::uint64_t seq, std::uint32_t min,
                 std::uint32_t requested) {
  return QueueEntry{id, seq, min, requested, util::megabytes(1), {0, 1}};
}

/// next_admission with aging off (the clock then does not matter).
std::optional<AdmissionDecision> admit(const JobQueue& queue,
                                       FairnessPolicy policy,
                                       std::uint32_t largest_free_block) {
  return next_admission(queue, policy, largest_free_block, util::Seconds(0.0),
                        util::Seconds(0.0));
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

}  // namespace
}  // namespace wrht::runtime
