// Step-boundary band renegotiation in the multi-tenant runtime: priority
// preemption (suspend at a boundary, surrender the band, resume later on a
// rebuilt remainder) and elastic resize (grow into freed neighboring
// spectrum, shrink under queue pressure).  Every renegotiated execution is
// re-proven with the composite oracle inside the runtime, so these runs
// completing at all is itself a correctness statement.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

namespace wrht::runtime {
namespace {

JobSpec span_job(std::uint32_t first, std::uint32_t count,
                 util::Bytes payload, util::Seconds arrival = {}) {
  JobSpec spec;
  for (std::uint32_t i = 0; i < count; ++i) {
    spec.participants.push_back(first + i);
  }
  spec.payload = payload;
  spec.arrival = arrival;
  return spec;
}

TEST(Preemption, HighPriorityArrivalSuspendsAndResumesLowPriority) {
  // A low-priority job saturates the whole spectrum; a high-priority job
  // arrives mid-flight.  The victim must surrender its band at a step
  // boundary (not at completion), the arrival must run to completion, and
  // the victim must resume and still finish correctly.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  CollectiveRuntime rt(config);
  JobSpec blocker = span_job(0, 12, util::megabytes(32));
  blocker.min_wavelengths = 8;
  blocker.requested_wavelengths = 8;
  blocker.priority = 0;
  const JobId victim = rt.submit(blocker);

  JobSpec urgent = span_job(2, 6, util::megabytes(1),
                            util::microseconds(1.0));
  urgent.min_wavelengths = 4;
  urgent.requested_wavelengths = 4;
  urgent.priority = 5;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(report.preemptions, 1u);
  EXPECT_EQ(report.resumes, report.preemptions);
  EXPECT_EQ(report.oracle_failures, 0u);

  const JobRecord& v = rt.record(victim);
  const JobRecord& u = rt.record(vip);
  EXPECT_GE(v.preemptions, 1u);
  EXPECT_EQ(u.preemptions, 0u);
  // The urgent job got a band while the victim was still mid-collective,
  // i.e. before the victim's completion, and finished first.
  EXPECT_LT(u.admitted, v.completed);
  EXPECT_LT(u.completed, v.completed);
  EXPECT_EQ(v.state, JobState::kDone);
  EXPECT_TRUE(v.oracle_ok);
  EXPECT_TRUE(u.oracle_ok);
}

TEST(Preemption, GrantedWithinOneStepBoundary) {
  // The urgent job's admission must coincide with the victim's first step
  // boundary after arrival — that is what "preempt at the boundary" means.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  CollectiveRuntime rt(config);
  rt.trace().enable();
  JobSpec blocker = span_job(0, 12, util::megabytes(32));
  blocker.min_wavelengths = 8;
  blocker.priority = 0;
  const JobId victim = rt.submit(blocker);
  JobSpec urgent = span_job(2, 6, util::megabytes(1),
                            util::microseconds(1.0));
  urgent.min_wavelengths = 4;
  urgent.priority = 5;
  const JobId vip = rt.submit(urgent);
  rt.run();

  util::Seconds preempt_time{-1.0};
  util::Seconds vip_admit_time{-1.0};
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobPreempt &&
        e.a == static_cast<std::int64_t>(victim) &&
        preempt_time < util::Seconds(0.0)) {
      preempt_time = e.time;
    }
    if (e.kind == sim::TraceKind::kJobAdmit &&
        e.a == static_cast<std::int64_t>(vip)) {
      vip_admit_time = e.time;
    }
  }
  ASSERT_GE(preempt_time, util::Seconds(0.0));
  ASSERT_GE(vip_admit_time, util::Seconds(0.0));
  // Admission happens AT the surrender boundary, not after the victim ends.
  EXPECT_EQ(vip_admit_time, preempt_time);
}

TEST(Preemption, EqualPriorityNeverPreempts) {
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  CollectiveRuntime rt(config);
  JobSpec first = span_job(0, 12, util::megabytes(8));
  first.min_wavelengths = 8;
  first.priority = 3;
  rt.submit(first);
  JobSpec second = span_job(0, 12, util::megabytes(8),
                            util::microseconds(1.0));
  second.min_wavelengths = 8;
  second.priority = 3;  // same urgency: waits like FIFO
  rt.submit(second);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.preemptions, 0u);
  EXPECT_EQ(rt.completion_order(), (std::vector<JobId>{0, 1}));
}

TEST(Preemption, PriorityOrdersTheQueue) {
  // Three jobs queued behind a blocker: the highest priority runs first
  // regardless of arrival order, ties break on arrival.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;

  CollectiveRuntime rt(config);
  JobSpec blocker = span_job(0, 8, util::kilobytes(512));
  blocker.min_wavelengths = 8;
  blocker.priority = 10;  // above everyone: never preempted
  rt.submit(blocker);
  for (const std::int32_t priority : {1, 7, 7}) {
    JobSpec spec = span_job(0, 8, util::megabytes(1),
                            util::microseconds(1.0));
    spec.min_wavelengths = 8;
    spec.priority = priority;
    rt.submit(spec);
  }
  rt.run();
  EXPECT_EQ(rt.completion_order(), (std::vector<JobId>{0, 2, 3, 1}));
}

TEST(Preemption, FragmentedFreeSpectrumStillTriggersPreemption) {
  // Four width-2 bands; the two middle-band jobs finish early, leaving
  // free = [2,4) + [6,8): a TOTAL of 4 wavelengths but no contiguous run
  // of 4.  An urgent min=4 arrival must not be fooled by the free total —
  // it needs a victim to surrender a band that merges with a free run.
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;
  CollectiveRuntime rt(config);

  for (std::uint32_t i = 0; i < 4; ++i) {
    // Alternating long/short: bands [0,2) long, [2,4) short, [4,6) long,
    // [6,8) short (first-fit in submission order, all at t=0).
    JobSpec spec = span_job(i * 8, 6, i % 2 == 0 ? util::megabytes(64)
                                                 : util::kilobytes(64));
    spec.requested_wavelengths = 2;
    spec.min_wavelengths = 2;
    spec.priority = 0;
    rt.submit(spec);
  }
  JobSpec urgent = span_job(1, 6, util::megabytes(1),
                            util::milliseconds(15.0));
  urgent.min_wavelengths = 4;
  urgent.requested_wavelengths = 4;
  urgent.priority = 9;
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 5u);
  EXPECT_GE(report.preemptions, 1u);
  const JobRecord& u = rt.record(vip);
  // Admitted off a surrendered band, before either long job completed.
  EXPECT_LT(u.admitted, rt.record(0).completed);
  EXPECT_LT(u.admitted, rt.record(2).completed);
  EXPECT_EQ(u.band.width, 4u);
}

TEST(Preemption, NegativePrioritiesKeepTheirOrder) {
  // priority -1 is strictly more urgent than -5; max-folding into an
  // execution must not flatten either to 0.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;
  CollectiveRuntime rt(config);

  JobSpec background = span_job(0, 12, util::megabytes(32));
  background.min_wavelengths = 8;
  background.priority = -5;
  const JobId victim = rt.submit(background);
  JobSpec urgent = span_job(2, 6, util::megabytes(1),
                            util::microseconds(1.0));
  urgent.min_wavelengths = 4;
  urgent.priority = -1;  // still negative, still more urgent
  const JobId vip = rt.submit(urgent);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(report.preemptions, 1u);
  EXPECT_GE(rt.record(victim).preemptions, 1u);
  EXPECT_LT(rt.record(vip).completed, rt.record(victim).completed);
}

TEST(Preemption, SuspendedVictimOutranksLaterLowPriorityArrivals) {
  // A (priority 5) is preempted for B (priority 10).  While B runs, C
  // (priority 1) arrives.  When B completes, the freed band must go to the
  // suspended A — not to C just because C sits in the queue and A does not:
  // that admission-side inversion would let a trickle of low-priority
  // arrivals starve a preempted victim forever.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 8;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.batcher.enabled = false;
  CollectiveRuntime rt(config);

  JobSpec a = span_job(0, 12, util::megabytes(16));
  a.min_wavelengths = 8;
  a.priority = 5;
  const JobId mid = rt.submit(a);
  JobSpec b = span_job(2, 8, util::megabytes(8), util::microseconds(1.0));
  b.min_wavelengths = 8;
  b.priority = 10;
  const JobId top = rt.submit(b);
  JobSpec c = span_job(4, 6, util::kilobytes(64), util::microseconds(2.0));
  c.min_wavelengths = 1;
  c.priority = 1;
  const JobId low = rt.submit(c);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_GE(rt.record(mid).preemptions, 1u);
  // B first, then the resumed A, and only then C.
  EXPECT_EQ(rt.completion_order(), (std::vector<JobId>{top, mid, low}));
  EXPECT_GE(rt.record(low).admitted, rt.record(mid).completed);
}

TEST(Resize, LoneJobGrowsIntoFreedSpectrum) {
  // A narrow-banded job shares the ring with a short wide job.  When the
  // wide job finishes, the survivor's next boundary grows its band and the
  // rebuilt remainder has fewer levels, so it beats its fixed-band twin.
  auto run_once = [](bool elastic) {
    RuntimeConfig config;
    config.ring_size = 32;
    config.optical.wdm.num_wavelengths = 32;
    config.batcher.enabled = false;
    config.elastic_resize = elastic;
    CollectiveRuntime rt(config);
    JobSpec narrow = span_job(0, 24, util::megabytes(64));
    narrow.requested_wavelengths = 2;
    narrow.min_wavelengths = 2;
    rt.submit(narrow);
    JobSpec wide = span_job(8, 16, util::kilobytes(64));
    wide.requested_wavelengths = 30;
    rt.submit(wide);
    const RuntimeReport report = rt.run();
    return std::pair<util::Seconds, std::uint32_t>(report.makespan,
                                                   report.resizes);
  };

  const auto [fixed_makespan, fixed_resizes] = run_once(false);
  const auto [elastic_makespan, elastic_resizes] = run_once(true);
  EXPECT_EQ(fixed_resizes, 0u);
  EXPECT_GE(elastic_resizes, 1u);
  EXPECT_LT(elastic_makespan, fixed_makespan);
}

TEST(Resize, GrowRecordsResizeTraceAndRecord) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 32;
  config.batcher.enabled = false;
  config.elastic_resize = true;
  CollectiveRuntime rt(config);
  rt.trace().enable();
  JobSpec narrow = span_job(0, 24, util::megabytes(64));
  narrow.requested_wavelengths = 2;
  narrow.min_wavelengths = 2;
  const JobId id = rt.submit(narrow);
  JobSpec wide = span_job(8, 16, util::kilobytes(64));
  wide.requested_wavelengths = 30;
  rt.submit(wide);
  rt.run();

  const JobRecord& r = rt.record(id);
  EXPECT_GE(r.resizes, 1u);
  // The final band is wider than the original grant.
  EXPECT_GT(r.band.width, 2u);
  bool saw_resize = false;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobResize &&
        e.a == static_cast<std::int64_t>(id)) {
      saw_resize = true;
      // Band identity (base) in b, width in c — same convention as
      // admit/complete.
      EXPECT_EQ(e.b, static_cast<std::int64_t>(r.band.base));
      EXPECT_EQ(e.c, static_cast<std::int64_t>(r.band.width));
    }
  }
  EXPECT_TRUE(saw_resize);
}

TEST(Resize, ShrinkUnderPressureUnblocksStarvedTenant) {
  // One long job holds the whole spectrum; a second tenant with a real
  // minimum arrives and would otherwise wait for full completion.  With
  // elastic resize the holder shrinks at a boundary and the tenants overlap.
  auto run_once = [](bool elastic) {
    RuntimeConfig config;
    config.ring_size = 16;
    config.optical.wdm.num_wavelengths = 16;
    config.batcher.enabled = false;
    config.elastic_resize = elastic;
    CollectiveRuntime rt(config);
    JobSpec hog = span_job(0, 12, util::megabytes(48));
    hog.requested_wavelengths = 16;
    hog.min_wavelengths = 1;
    rt.submit(hog);
    JobSpec starved = span_job(4, 8, util::megabytes(8),
                               util::microseconds(1.0));
    starved.min_wavelengths = 8;
    starved.requested_wavelengths = 8;
    rt.submit(starved);
    const RuntimeReport report = rt.run();
    const util::Seconds starved_admitted = rt.record(1).admitted;
    const util::Seconds hog_completed = rt.record(0).completed;
    return std::tuple<util::Seconds, util::Seconds, util::Seconds,
                      std::uint32_t>(report.makespan, starved_admitted,
                                     hog_completed, report.resizes);
  };

  const auto [fixed_makespan, fixed_admit, fixed_hog_done, fixed_resizes] =
      run_once(false);
  const auto [elastic_makespan, elastic_admit, elastic_hog_done,
              elastic_resizes] = run_once(true);
  EXPECT_EQ(fixed_resizes, 0u);
  // Fixed bands: the starved tenant waits for the hog to finish entirely.
  EXPECT_GE(fixed_admit, fixed_hog_done);
  // Elastic: it is admitted at a boundary, while the hog is still running.
  EXPECT_GE(elastic_resizes, 1u);
  EXPECT_LT(elastic_admit, elastic_hog_done);
  EXPECT_LT(elastic_makespan, fixed_makespan);
}

TEST(Resize, ShrinkReachesTheFloorWhenWaiterNeedsMoreThanHalf) {
  // The starved tenant needs 10 of 16 wavelengths — more than the gentle
  // half-cut frees.  The shrink must fall through to the deeper cut (the
  // holder's floor) instead of concluding nothing helps.
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.elastic_resize = true;
  CollectiveRuntime rt(config);
  JobSpec hog = span_job(0, 12, util::megabytes(48));
  hog.requested_wavelengths = 16;
  hog.min_wavelengths = 2;
  const JobId holder = rt.submit(hog);
  JobSpec starved = span_job(2, 10, util::megabytes(4),
                             util::microseconds(1.0));
  starved.min_wavelengths = 10;
  starved.requested_wavelengths = 10;
  const JobId waiter = rt.submit(starved);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_GE(report.resizes, 1u);
  // Admitted off the deep cut, while the holder was still running.
  EXPECT_LT(rt.record(waiter).admitted, rt.record(holder).completed);
  EXPECT_GE(rt.record(waiter).band.width, 10u);
}

TEST(Renegotiation, RandomMixStaysDeterministicAndCorrect) {
  // Priority-preempt + elastic resize together on a contended mix: the run
  // must drain (no stuck suspensions), pass every composite oracle check,
  // and stay deterministic across repeats.
  auto run_once = []() {
    RuntimeConfig config;
    config.ring_size = 32;
    config.optical.wdm.num_wavelengths = 16;
    config.policy = FairnessPolicy::kPriorityPreempt;
    config.elastic_resize = true;
    CollectiveRuntime rt(config);
    for (std::uint32_t i = 0; i < 12; ++i) {
      JobSpec spec = span_job((i * 3) % 16, 8 + (i % 5) * 2,
                              util::megabytes(1 + 7 * (i % 4)),
                              util::microseconds(static_cast<double>(i) * 40));
      spec.priority = static_cast<std::int32_t>(i % 3);
      rt.submit(spec);
    }
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 12u);
    EXPECT_EQ(report.oracle_failures, 0u);
    return rt.completion_order();
  };
  const std::vector<JobId> once = run_once();
  const std::vector<JobId> again = run_once();
  EXPECT_EQ(once, again);
  EXPECT_EQ(once.size(), 12u);
}

}  // namespace
}  // namespace wrht::runtime
