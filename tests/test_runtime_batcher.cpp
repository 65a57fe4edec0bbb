#include "runtime/batcher.hpp"

#include <gtest/gtest.h>

#include "runtime/runtime.hpp"

namespace wrht::runtime {
namespace {

QueueEntry job(JobId id, std::uint64_t seq, std::vector<topo::NodeId> group,
               util::Bytes payload) {
  return QueueEntry{id, seq, 1, 4, payload, std::move(group)};
}

constexpr util::Bytes kSmall = util::kilobytes(64);

TEST(Batcher, FusesSameGroupSmallJobs) {
  JobQueue queue;
  queue.push(job(0, 0, {0, 1, 2, 3}, kSmall));
  queue.push(job(1, 1, {0, 1, 2, 3}, kSmall));
  queue.push(job(2, 2, {4, 5, 6, 7}, kSmall));  // different group
  queue.push(job(3, 3, {0, 1, 2, 3}, kSmall));
  const auto peers = fusable_peers(queue, 0, 4, BatcherConfig{});
  EXPECT_EQ(peers, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Batcher, LargeLeadRunsAlone) {
  JobQueue queue;
  queue.push(job(0, 0, {0, 1, 2, 3}, util::megabytes(64)));
  queue.push(job(1, 1, {0, 1, 2, 3}, kSmall));
  const auto peers = fusable_peers(queue, 0, 4, BatcherConfig{});
  EXPECT_EQ(peers, (std::vector<std::size_t>{0}));
}

TEST(Batcher, LargePeersAreSkipped) {
  JobQueue queue;
  queue.push(job(0, 0, {0, 1, 2, 3}, kSmall));
  queue.push(job(1, 1, {0, 1, 2, 3}, util::megabytes(64)));
  const auto peers = fusable_peers(queue, 0, 4, BatcherConfig{});
  EXPECT_EQ(peers, (std::vector<std::size_t>{0}));
}

TEST(Batcher, CapsBatchSizeOldestFirst) {
  JobQueue queue;
  for (JobId id = 0; id < 6; ++id) {
    queue.push(job(id, id, {0, 1, 2, 3}, kSmall));
  }
  BatcherConfig config;
  config.max_jobs_per_batch = 3;
  // Lead is the newest entry; the two OLDEST peers join it.
  const auto peers = fusable_peers(queue, 5, 4, config);
  EXPECT_EQ(peers, (std::vector<std::size_t>{0, 1, 5}));
}

TEST(Batcher, PeerMinimumAboveGrantIsSkipped) {
  JobQueue queue;
  queue.push(job(0, 0, {0, 1, 2, 3}, kSmall));
  QueueEntry demanding = job(1, 1, {0, 1, 2, 3}, kSmall);
  demanding.min_wavelengths = 8;  // more than the lead's granted band
  queue.push(demanding);
  queue.push(job(2, 2, {0, 1, 2, 3}, kSmall));
  const auto peers = fusable_peers(queue, 0, /*granted_band_width=*/4,
                                   BatcherConfig{});
  EXPECT_EQ(peers, (std::vector<std::size_t>{0, 2}));
}

TEST(Batcher, TotalBatchPayloadIsBudgeted) {
  // Eight jobs each exactly at the per-job fuse cap used to fuse into an
  // 8x-oversized "small-job" batch; the batch budget stops the pile-up at
  // the oldest prefix that fits.
  JobQueue queue;
  BatcherConfig config;
  config.max_fuse_payload = util::kilobytes(256);
  config.max_jobs_per_batch = 8;
  config.max_batch_payload = util::kilobytes(640);
  for (JobId id = 0; id < 8; ++id) {
    queue.push(job(id, id, {0, 1, 2, 3}, util::kilobytes(256)));
  }
  // Lead (256k) + oldest peer (256k) fit; a third would cross 640k.
  const auto peers = fusable_peers(queue, 0, 4, config);
  EXPECT_EQ(peers, (std::vector<std::size_t>{0, 1}));
}

TEST(Batcher, PayloadBudgetKeepsOldestPrefixNotSmallestPeers) {
  // A big old peer that blows the budget ends the batch even though a
  // younger small peer would still fit — fusion must not reorder tenants.
  JobQueue queue;
  BatcherConfig config;
  config.max_fuse_payload = util::kilobytes(256);
  config.max_batch_payload = util::kilobytes(300);
  queue.push(job(0, 0, {0, 1, 2, 3}, util::kilobytes(128)));
  queue.push(job(1, 1, {0, 1, 2, 3}, util::kilobytes(256)));  // over budget
  queue.push(job(2, 2, {0, 1, 2, 3}, util::kilobytes(16)));   // would fit
  const auto peers = fusable_peers(queue, 0, 4, config);
  EXPECT_EQ(peers, (std::vector<std::size_t>{0}));
}

TEST(Batcher, DisabledReturnsLeadOnly) {
  JobQueue queue;
  queue.push(job(0, 0, {0, 1, 2, 3}, kSmall));
  queue.push(job(1, 1, {0, 1, 2, 3}, kSmall));
  BatcherConfig config;
  config.enabled = false;
  EXPECT_EQ(fusable_peers(queue, 0, 4, config),
            (std::vector<std::size_t>{0}));
}

TEST(Batcher, MixedPrioritiesNeverFuse) {
  // Regression: an execution carries ONE priority (the max over its fused
  // jobs), so fusing a low-priority rider into a high-priority lead let the
  // rider inherit the lead's urgency and dodge preemption.  Only
  // equal-priority jobs may share a batch.
  JobQueue queue;
  QueueEntry lead = job(0, 0, {0, 1, 2, 3}, kSmall);
  lead.priority = 5;
  queue.push(lead);
  QueueEntry rider = job(1, 1, {0, 1, 2, 3}, kSmall);
  rider.priority = 0;  // lower urgency: must not ride along
  queue.push(rider);
  QueueEntry peer = job(2, 2, {0, 1, 2, 3}, kSmall);
  peer.priority = 5;  // same urgency: fuses
  queue.push(peer);
  QueueEntry upward = job(3, 3, {0, 1, 2, 3}, kSmall);
  upward.priority = 9;  // HIGHER urgency must not be dragged down either
  queue.push(upward);
  const auto peers = fusable_peers(queue, 0, 4, BatcherConfig{});
  EXPECT_EQ(peers, (std::vector<std::size_t>{0, 2}));
}

TEST(Batcher, LowPriorityRiderStaysPreemptibleAtRuntime) {
  // End to end: a priority-0 job queued next to a priority-5 lead must run
  // as its own execution, stay preemptible, and actually be preempted by a
  // later urgent arrival — before the fix it fused into the lead's batch
  // and sailed through at priority 5.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.max_fuse_payload = util::megabytes(8);
  config.batcher.max_batch_payload = util::megabytes(16);

  CollectiveRuntime rt(config);
  JobSpec blocker;  // saturates the ring so both arrivals queue together
  for (std::uint32_t i = 0; i < 8; ++i) blocker.participants.push_back(i);
  blocker.payload = util::kilobytes(256);
  blocker.min_wavelengths = 8;
  blocker.priority = 7;
  rt.submit(blocker);

  JobSpec lead;
  for (std::uint32_t i = 0; i < 8; ++i) lead.participants.push_back(i);
  lead.payload = util::megabytes(4);
  lead.arrival = util::microseconds(1.0);
  lead.min_wavelengths = 8;
  lead.priority = 5;
  const JobId lead_id = rt.submit(lead);

  JobSpec rider = lead;  // same group, same size — only the urgency differs
  rider.priority = 0;
  const JobId rider_id = rt.submit(rider);

  JobSpec urgent;
  for (std::uint32_t i = 0; i < 6; ++i) urgent.participants.push_back(2 + i);
  urgent.payload = util::megabytes(1);
  urgent.arrival = util::milliseconds(13.0);  // lands mid-rider
  urgent.min_wavelengths = 4;
  urgent.priority = 9;
  const JobId urgent_id = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 4u);
  // Not fused: different priorities.
  EXPECT_EQ(rt.record(lead_id).batch_size, 1u);
  EXPECT_EQ(rt.record(rider_id).batch_size, 1u);
  // The rider kept its own (preemptible) priority and the urgent arrival
  // suspended it.
  EXPECT_GE(rt.record(rider_id).preemptions, 1u);
  EXPECT_EQ(rt.record(lead_id).preemptions, 0u);
  EXPECT_LT(rt.record(urgent_id).completed, rt.record(rider_id).completed);
}

TEST(Batcher, FusionEmitsAJobFusedTraceEventPerRider) {
  // Every non-lead job fused into a batch records a kJobFused event at the
  // batch's admission: `a` is the rider, `b` the lead it rode into.  The
  // Chrome trace exporter renders these as "fused" instants.  A blocker
  // above the fuse threshold fills the ring, so the three small jobs queue
  // behind it and fuse when it completes.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  CollectiveRuntime rt(config);
  rt.trace().enable();
  JobSpec blocker;
  for (std::uint32_t n = 0; n < 8; ++n) blocker.participants.push_back(n);
  blocker.payload = util::megabytes(16);
  blocker.min_wavelengths = 8;
  rt.submit(blocker);
  for (std::uint32_t i = 0; i < 3; ++i) {
    JobSpec spec;
    for (std::uint32_t n = 0; n < 6; ++n) spec.participants.push_back(n);
    spec.payload = util::kilobytes(48);
    spec.arrival = util::microseconds(static_cast<double>(i + 1));
    rt.submit(spec);
  }
  const RuntimeReport report = rt.run();
  ASSERT_EQ(report.completed, 4u);
  ASSERT_EQ(report.batches, 1u);
  ASSERT_EQ(rt.record(1).admitted, rt.record(0).completed);

  std::vector<JobId> fused_riders;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind != sim::TraceKind::kJobFused) continue;
    fused_riders.push_back(static_cast<JobId>(e.a));
    // Every rider fused into the same lead, at the lead's admission time.
    EXPECT_EQ(e.b, 1);
    EXPECT_EQ(e.time, rt.record(1).admitted);
  }
  // Two riders (jobs 2 and 3) joined lead 1; the lead itself emits none.
  EXPECT_EQ(fused_riders, (std::vector<JobId>{2, 3}));
}

}  // namespace
}  // namespace wrht::runtime
