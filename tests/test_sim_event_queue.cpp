#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace wrht::sim {
namespace {

using wrht::util::Seconds;

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> fired;
  queue.push(Seconds(3.0), [&] { fired.push_back(3); });
  queue.push(Seconds(1.0), [&] { fired.push_back(1); });
  queue.push(Seconds(2.0), [&] { fired.push_back(2); });
  while (!queue.empty()) {
    queue.pop().callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAtSameTimestamp) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.push(Seconds(5.0), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    queue.pop().callback();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueue, SizeAndEmptyTrackLiveEvents) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  queue.push(Seconds(1.0), [] {});
  queue.push(Seconds(2.0), [] {});
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.size(), 2u);
  queue.pop();
  EXPECT_EQ(queue.size(), 1u);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.push(Seconds(9.0), [] {});
  queue.push(Seconds(4.0), [] {});
  EXPECT_DOUBLE_EQ(queue.next_time().value(), 4.0);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue queue;
  std::vector<int> fired;
  queue.push(Seconds(1.0), [&] { fired.push_back(1); });
  const auto handle = queue.push(Seconds(2.0), [&] { fired.push_back(2); });
  queue.push(Seconds(3.0), [&] { fired.push_back(3); });
  EXPECT_TRUE(queue.cancel(handle));
  while (!queue.empty()) {
    queue.pop().callback();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue queue;
  const auto handle = queue.push(Seconds(1.0), [] {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue queue;
  const auto handle = queue.push(Seconds(1.0), [] {});
  queue.pop();
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueue, CancelledHeadDoesNotBlockNextTime) {
  EventQueue queue;
  const auto handle = queue.push(Seconds(1.0), [] {});
  queue.push(Seconds(2.0), [] {});
  queue.cancel(handle);
  EXPECT_DOUBLE_EQ(queue.next_time().value(), 2.0);
  EXPECT_EQ(queue.size(), 1u);
}

// The memory contract behind million-job serving: with recycling on (the
// default), slots and heap entries track the OUTSTANDING window, not the
// lifetime push count.  A cancel-heavy million-event run must end with both
// tables holding only a small multiple of the ~64-event steady-state window.
TEST(EventQueue, CancelHeavyMillionEventRunHoldsMemoryFlat) {
  EventQueue queue;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  for (std::uint64_t i = 0; i < 1000000; ++i) {
    queue.push(Seconds(static_cast<double>(i)), [&fired] { ++fired; });
    // Every second event is cancelled immediately — the cancel-heavy
    // pattern that used to leave dead heap entries behind forever.
    const std::uint64_t doomed =
        queue.push(Seconds(static_cast<double>(i) + 0.5), [] {});
    ASSERT_TRUE(queue.cancel(doomed));
    ++cancelled;
    if (queue.size() > 64) {
      queue.pop().callback();
    }
  }
  // 2e6 pushes went through; the tables must reflect the ~64-live window.
  EXPECT_LE(queue.slot_count(), 1024u);
  EXPECT_LE(queue.heap_entry_count(), 1024u);
  while (!queue.empty()) {
    queue.pop().callback();
  }
  EXPECT_EQ(fired + cancelled, 2000000u);
}

// Pop order is the determinism contract: slot recycling and tombstone
// compaction must not perturb it.  A reference model — the surviving
// pushes, stable-sorted by time — predicts every pop under interleaved
// pushes, pops, and cancels at tied timestamps.
TEST(EventQueue, RecyclingPreservesPopOrder) {
  EventQueue queue;
  std::vector<int> fired;
  std::vector<int> expected;
  // Reference: live (time, id) pairs in push order; the next pop is the
  // first pair with the smallest time.
  std::vector<std::pair<int, int>> pending;
  std::vector<std::uint64_t> handles;
  const auto pop_both = [&] {
    const auto next = std::min_element(
        pending.begin(), pending.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    expected.push_back(next->second);
    pending.erase(next);
    queue.pop().callback();
  };
  for (int i = 0; i < 2000; ++i) {
    const int time = i % 7;
    handles.push_back(queue.push(Seconds(static_cast<double>(time)),
                                 [&fired, i] { fired.push_back(i); }));
    pending.emplace_back(time, i);
    // Cancel two of every three pushes (the previous one, which may have
    // popped already), so tombstones dominate and the heap compacts.
    if (i % 3 != 0) {
      const auto victim =
          std::find_if(pending.begin(), pending.end(),
                       [i](const auto& p) { return p.second == i - 1; });
      const bool live = victim != pending.end();
      if (live) pending.erase(victim);
      EXPECT_EQ(queue.cancel(handles[static_cast<std::size_t>(i) - 1]), live);
    }
    if (i % 5 == 4) pop_both();
  }
  // Cancelled and popped slots were handed out again.
  EXPECT_LT(queue.slot_count(), handles.size());
  EXPECT_EQ(queue.size(), pending.size());
  while (!queue.empty()) pop_both();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueue, ManyInterleavedOperations) {
  EventQueue queue;
  int fired = 0;
  std::vector<std::uint64_t> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        queue.push(Seconds(static_cast<double>(i % 17)), [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    if (queue.cancel(handles[i])) ++cancelled;
  }
  while (!queue.empty()) {
    queue.pop().callback();
  }
  EXPECT_EQ(fired + cancelled, 1000);
}

}  // namespace
}  // namespace wrht::sim
