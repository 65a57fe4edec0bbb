#include "runtime/admission.hpp"

#include <gtest/gtest.h>

namespace wrht::runtime {
namespace {

QueueEntry entry(JobId id, std::uint64_t seq, std::uint32_t min,
                 std::uint32_t requested, double weight = 1.0,
                 util::Bytes payload = util::megabytes(1)) {
  return QueueEntry{id, seq, min, requested, weight, payload, {0, 1}};
}

TEST(AdmissionFifo, HeadGetsRequestCappedByFreeBlock) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/2, /*requested=*/8));
  const auto d =
      next_admission(queue, FairnessPolicy::kFifo, /*largest=*/6, /*free=*/6);
  ASSERT_TRUE(d);
  EXPECT_EQ(d->queue_index, 0u);
  EXPECT_EQ(d->grant, 6u);
}

TEST(AdmissionFifo, HeadOfLineBlocks) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/8, /*requested=*/8));
  queue.push(entry(1, 1, /*min=*/2, /*requested=*/2));
  // The younger job fits, but FIFO refuses to jump the line.
  EXPECT_FALSE(next_admission(queue, FairnessPolicy::kFifo, 4, 4));
}

TEST(AdmissionFifo, BelowMinimumDeclines) {
  JobQueue queue;
  queue.push(entry(0, 0, /*min=*/4, /*requested=*/8));
  EXPECT_FALSE(next_admission(queue, FairnessPolicy::kFifo, 3, 3));
}

TEST(AdmissionSmallest, PicksSmallestPayloadThatFits) {
  JobQueue queue;
  queue.push(entry(0, 0, 2, 4, 1.0, util::megabytes(64)));
  queue.push(entry(1, 1, 2, 4, 1.0, util::kilobytes(64)));
  queue.push(entry(2, 2, 8, 8, 1.0, util::Bytes(1)));  // tiny but won't fit
  const auto d =
      next_admission(queue, FairnessPolicy::kSmallestFirst, 4, 4);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 1u);
  EXPECT_EQ(d->grant, 4u);
}

TEST(AdmissionSmallest, TieBreaksOnSubmissionOrder) {
  JobQueue queue;
  queue.push(entry(7, 5, 1, 2, 1.0, util::kilobytes(10)));
  queue.push(entry(3, 2, 1, 2, 1.0, util::kilobytes(10)));
  const auto d =
      next_admission(queue, FairnessPolicy::kSmallestFirst, 8, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 3u);
}

TEST(AdmissionWeighted, SharesSpectrumProportionally) {
  JobQueue queue;
  queue.push(entry(0, 0, 1, 32, /*weight=*/3.0));
  queue.push(entry(1, 1, 1, 32, /*weight=*/1.0));
  // 32 free: the heavy job is picked first with 3/4 of the pool.
  const auto first =
      next_admission(queue, FairnessPolicy::kWeightedFair, 32, 32);
  ASSERT_TRUE(first);
  EXPECT_EQ(queue.at(first->queue_index).id, 0u);
  EXPECT_EQ(first->grant, 24u);

  // With the heavy job gone and 8 left, the light job gets the rest.
  JobQueue rest;
  rest.push(entry(1, 1, 1, 32, 1.0));
  const auto second =
      next_admission(rest, FairnessPolicy::kWeightedFair, 8, 8);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->grant, 8u);
}

TEST(AdmissionWeighted, MinimumOverridesTinyShare) {
  JobQueue queue;
  queue.push(entry(0, 0, 1, 32, /*weight=*/100.0));
  queue.push(entry(1, 1, /*min=*/4, 32, /*weight=*/0.01));
  const auto d =
      next_admission(queue, FairnessPolicy::kWeightedFair, 32, 32);
  ASSERT_TRUE(d);
  // Heavy job wins the slot but its share leaves the queue admissible; the
  // light job's next admission would still honor min_wavelengths = 4.
  EXPECT_EQ(queue.at(d->queue_index).id, 0u);
  JobQueue light;
  light.push(entry(1, 1, 4, 32, 0.01));
  const auto l = next_admission(light, FairnessPolicy::kWeightedFair, 6, 6);
  ASSERT_TRUE(l);
  EXPECT_GE(l->grant, 4u);
}

TEST(AdmissionWeighted, AllZeroWeightsFallBackToFifo) {
  // With no positive weight there is no share to split; the policy must
  // degrade to strict arrival order rather than divide by zero or starve.
  JobQueue queue;
  queue.push(entry(7, /*seq=*/5, 1, 4, /*weight=*/0.0));
  queue.push(entry(3, /*seq=*/2, 1, 4, /*weight=*/0.0));
  const auto d =
      next_admission(queue, FairnessPolicy::kWeightedFair, 8, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 3u);  // oldest, not heaviest
  // FIFO semantics also means head-of-line blocking: if the oldest cannot
  // fit, nothing runs.
  JobQueue blocked;
  blocked.push(entry(0, 0, /*min=*/8, 8, 0.0));
  blocked.push(entry(1, 1, /*min=*/1, 1, 0.0));
  EXPECT_FALSE(next_admission(blocked, FairnessPolicy::kWeightedFair, 4, 4));
}

TEST(AdmissionWeighted, NegativeWeightsAreClampedNotTrusted) {
  // All-negative degrades to FIFO like all-zero...
  JobQueue queue;
  queue.push(entry(9, /*seq=*/4, 1, 4, /*weight=*/-2.0));
  queue.push(entry(1, /*seq=*/1, 1, 4, /*weight=*/-7.0));
  const auto d =
      next_admission(queue, FairnessPolicy::kWeightedFair, 8, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 1u);

  // ...and a negative weight next to a positive one counts as zero share,
  // not as a negative share that could corrupt the split: the positive job
  // wins and gets the WHOLE free pool, since the other's share is zero.
  JobQueue mixed;
  mixed.push(entry(0, 0, 1, 32, /*weight=*/-5.0));
  mixed.push(entry(1, 1, 1, 32, /*weight=*/1.0));
  const auto m =
      next_admission(mixed, FairnessPolicy::kWeightedFair, 16, 16);
  ASSERT_TRUE(m);
  EXPECT_EQ(mixed.at(m->queue_index).id, 1u);
  EXPECT_EQ(m->grant, 16u);
}

TEST(AdmissionWeighted, TruncatedZeroShareIsRoundedUpToOne) {
  // Two equal featherweights over one free wavelength: each integer share
  // truncates to 0, and without the max(share, 1) floor neither would ever
  // be admissible.  The floor admits the older one with a single lambda.
  JobQueue queue;
  queue.push(entry(0, 0, 1, 8, /*weight=*/1e-3));
  queue.push(entry(1, 1, 1, 8, /*weight=*/1e-3));
  const auto d =
      next_admission(queue, FairnessPolicy::kWeightedFair, 1, 1);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 0u);
  EXPECT_EQ(d->grant, 1u);
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
      next_admission(queue, FairnessPolicy::kPriorityPreempt, 8, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).id, 1u);
}

TEST(AdmissionPriority, WinnerBlocksTheLine) {
  // The high-priority job's minimum does not fit; a low-priority job that
  // would fit must NOT slip into the band the runtime is preempting for it.
  JobQueue queue;
  queue.push(priority_entry(0, 0, /*priority=*/9, /*min=*/8, 8));
  queue.push(priority_entry(1, 1, /*priority=*/0, /*min=*/1, 1));
  EXPECT_FALSE(next_admission(queue, FairnessPolicy::kPriorityPreempt, 4, 4));
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
  // between two queued entries, and a held entry older still.
  for (std::uint64_t seq = 100; seq < 240; seq += 2) {
    EXPECT_EQ(queue.take(0).seq, seq);
  }
  queue.push(entry(500, 500, 1, 1));
  queue.push(entry(50, 50, 1, 1));
  queue.push(entry(245, 245, 1, 1));
  QueueEntry held = entry(7, 7, 1, 1);
  held.held = true;
  queue.push(held);
  ASSERT_EQ(queue.size(), 34u);
  for (std::size_t i = 1; i < queue.size(); ++i) {
    EXPECT_LT(queue.at(i - 1).seq, queue.at(i).seq) << "at index " << i;
  }
  // FIFO skips the held entry and admits the oldest eligible one.
  const auto d = next_admission(queue, FairnessPolicy::kFifo, 8, 8);
  ASSERT_TRUE(d);
  EXPECT_EQ(queue.at(d->queue_index).seq, 50u);
}

TEST(Admission, EmptyQueueOrNoSpectrumDeclines) {
  JobQueue queue;
  EXPECT_FALSE(next_admission(queue, FairnessPolicy::kFifo, 8, 8));
  queue.push(entry(0, 0, 1, 1));
  EXPECT_FALSE(next_admission(queue, FairnessPolicy::kFifo, 0, 0));
}

}  // namespace
}  // namespace wrht::runtime
