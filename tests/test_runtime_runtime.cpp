// End-to-end tests of the multi-tenant collective runtime: spectrum budget
// enforcement, conflict-free concurrency on one clock, batching correctness
// via the oracle, and deterministic completion ordering per policy.
#include "runtime/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/random.hpp"

namespace wrht::runtime {
namespace {

JobSpec group_job(std::uint32_t first, std::uint32_t count,
                  util::Bytes payload, util::Seconds arrival = {},
                  std::uint32_t requested = 0) {
  JobSpec spec;
  for (std::uint32_t i = 0; i < count; ++i) {
    spec.participants.push_back(first + i);
  }
  spec.payload = payload;
  spec.arrival = arrival;
  spec.requested_wavelengths = requested;
  return spec;
}

RuntimeConfig small_ring_config(std::uint32_t wavelengths) {
  RuntimeConfig config;
  config.ring_size = 16;
  config.optical.wdm.num_wavelengths = wavelengths;
  config.default_request = 4;
  return config;
}

TEST(RuntimeAdmission, RespectsTotalWavelengthBudget) {
  // 8 wavelengths; three jobs that each insist on 4.  Only two fit at once.
  RuntimeConfig config = small_ring_config(8);
  CollectiveRuntime rt(config);
  for (std::uint32_t i = 0; i < 3; ++i) {
    JobSpec spec = group_job(0, 8, util::megabytes(4), {}, /*requested=*/4);
    spec.min_wavelengths = 4;
    rt.submit(spec);
  }
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.peak_concurrent_jobs, 2u);

  // The two concurrent grants partition the spectrum instead of exceeding it.
  const JobRecord& a = rt.record(0);
  const JobRecord& b = rt.record(1);
  const JobRecord& c = rt.record(2);
  EXPECT_EQ(a.band.width + b.band.width, 8u);
  const bool disjoint = a.band.base + a.band.width <= b.band.base ||
                        b.band.base + b.band.width <= a.band.base;
  EXPECT_TRUE(disjoint);
  // The third job waited for a completion before being admitted.
  EXPECT_GT(c.admitted, a.admitted);
}

TEST(RuntimeAdmission, RejectsInfeasibleSpecs) {
  RuntimeConfig config = small_ring_config(8);
  CollectiveRuntime rt(config);

  JobSpec impossible = group_job(0, 4, util::kilobytes(1));
  impossible.min_wavelengths = 9;  // more than the whole spectrum
  const JobId a = rt.submit(impossible);

  JobSpec unsorted = group_job(0, 4, util::kilobytes(1));
  std::swap(unsorted.participants[0], unsorted.participants[3]);
  const JobId b = rt.submit(unsorted);

  JobSpec offring = group_job(14, 4, util::kilobytes(1));  // nodes 14..17
  const JobId c = rt.submit(offring);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.rejected, 3u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(rt.record(a).state, JobState::kRejected);
  EXPECT_EQ(rt.record(b).state, JobState::kRejected);
  EXPECT_EQ(rt.record(c).state, JobState::kRejected);
}

TEST(RuntimeAdmission, InconsistentSpecsAreRejectedWithReasonsNotRewritten) {
  RuntimeConfig config = small_ring_config(8);
  CollectiveRuntime rt(config);

  // Explicit request below the job's own minimum: a tenant bug the runtime
  // used to paper over by silently raising the request to the minimum.
  JobSpec contradictory = group_job(0, 8, util::kilobytes(1), {},
                                    /*requested=*/2);
  contradictory.min_wavelengths = 4;
  const JobId a = rt.submit(contradictory);

  // A minimum above the job's useful wavelength cap (4 participants can
  // exploit at most ceil(16/8) = 2 wavelengths): the old clamp granted the
  // minimum anyway and wasted the difference.
  JobSpec overdemanding = group_job(0, 4, util::kilobytes(1));
  overdemanding.min_wavelengths = 5;
  const JobId b = rt.submit(overdemanding);

  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.rejected, 2u);
  EXPECT_EQ(rt.record(a).state, JobState::kRejected);
  EXPECT_EQ(rt.record(a).reject_reason,
            "requested_wavelengths below min_wavelengths");
  EXPECT_EQ(rt.record(b).state, JobState::kRejected);
  EXPECT_EQ(rt.record(b).reject_reason,
            "min_wavelengths exceeds the job's useful wavelength cap");
}

TEST(RuntimeConcurrency, OverlappingJobsShareSpansWithoutConflict) {
  // Two jobs whose arcs cross the same physical spans (overlapping node
  // ranges) run concurrently.  Every reservation goes through the shared
  // SpectrumMap, which aborts the process on a double-booking — so this
  // test completing at all is the zero-conflict guarantee.
  RuntimeConfig config = small_ring_config(8);
  CollectiveRuntime rt(config);
  rt.submit(group_job(0, 8, util::megabytes(8), {}, /*requested=*/4));
  rt.submit(group_job(4, 8, util::megabytes(8), {}, /*requested=*/4));
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.peak_concurrent_jobs, 2u);
  EXPECT_GT(report.spectrum_reservations, 0u);
  EXPECT_EQ(report.oracle_failures, 0u);
  // Concurrent, not serialized: both admitted at t=0.
  EXPECT_EQ(rt.record(0).admitted, util::Seconds(0.0));
  EXPECT_EQ(rt.record(1).admitted, util::Seconds(0.0));
}

TEST(RuntimeConcurrency, ManyTenantsOneRing) {
  // The example scenario at test scale: 4 disjoint tenants, all concurrent.
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.default_request = 4;
  CollectiveRuntime rt(config);
  for (std::uint32_t tenant = 0; tenant < 4; ++tenant) {
    rt.submit(group_job(tenant * 8, 8, util::megabytes(2)));
  }
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 4u);
  EXPECT_EQ(report.peak_concurrent_jobs, 4u);
  EXPECT_EQ(report.oracle_failures, 0u);
}

JobSpec full_spectrum_blocker() {
  JobSpec blocker = group_job(0, 8, util::megabytes(1));
  blocker.min_wavelengths = 8;
  return blocker;
}

TEST(RuntimeBatching, FusedBatchPreservesCorrectnessAndAmortizesOverhead) {
  // Fusion happens under contention: the batcher merges QUEUED same-group
  // jobs, so a blocker holds the spectrum while the bucket burst arrives.
  RuntimeConfig config = small_ring_config(8);
  config.batcher.max_jobs_per_batch = 8;

  CollectiveRuntime rt(config);
  rt.submit(full_spectrum_blocker());
  for (std::uint32_t i = 0; i < 5; ++i) {
    rt.submit(
        group_job(2, 6, util::kilobytes(48), util::microseconds(1.0)));
  }
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.executions, 2u);  // blocker + one fused batch
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.oracle_failures, 0u);
  for (JobId id = 1; id <= 5; ++id) {
    EXPECT_EQ(rt.record(id).batch_size, 5u);
    EXPECT_TRUE(rt.record(id).oracle_ok);
  }

  // The same burst without batching pays the per-step overheads five times
  // over instead of once.
  RuntimeConfig no_batch = config;
  no_batch.batcher.enabled = false;
  CollectiveRuntime serial(no_batch);
  serial.submit(full_spectrum_blocker());
  for (std::uint32_t i = 0; i < 5; ++i) {
    serial.submit(
        group_job(2, 6, util::kilobytes(48), util::microseconds(1.0)));
  }
  const RuntimeReport unfused = serial.run();
  EXPECT_EQ(unfused.completed, 6u);
  EXPECT_LT(report.makespan, unfused.makespan);
  EXPECT_GT(unfused.total_steps, report.total_steps);
}

std::vector<JobSpec> random_job_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<JobSpec> jobs;
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto first = static_cast<std::uint32_t>(rng.next_below(8));
    const auto count = static_cast<std::uint32_t>(4 + rng.next_below(5));
    const util::Bytes payload =
        util::kilobytes(16 + rng.next_below(4096));
    const util::Seconds arrival =
        util::microseconds(static_cast<double>(rng.next_below(3000)));
    jobs.push_back(group_job(first, count, payload, arrival));
  }
  return jobs;
}

std::vector<JobId> completion_under(FairnessPolicy policy,
                                    std::uint64_t seed) {
  RuntimeConfig config = small_ring_config(8);
  config.policy = policy;
  CollectiveRuntime rt(config);
  for (const JobSpec& spec : random_job_mix(seed)) rt.submit(spec);
  rt.run();
  return rt.completion_order();
}

TEST(RuntimeFairness, CompletionOrderIsDeterministicPerPolicy) {
  for (const FairnessPolicy policy :
       {FairnessPolicy::kFifo, FairnessPolicy::kSmallestFirst,
        FairnessPolicy::kWeightedFair}) {
    const std::vector<JobId> once = completion_under(policy, 99);
    const std::vector<JobId> again = completion_under(policy, 99);
    EXPECT_EQ(once, again) << fairness_policy_name(policy);
    EXPECT_EQ(once.size(), 10u);
  }
}

TEST(RuntimeFairness, SmallestFirstOvertakesElephant) {
  // A blocker holds the whole spectrum while an elephant and then a mouse
  // arrive, so both are queued when it frees.  FIFO honors submission
  // order; smallest-first lets the mouse through first.
  for (const bool sjf : {false, true}) {
    RuntimeConfig config = small_ring_config(8);
    config.policy =
        sjf ? FairnessPolicy::kSmallestFirst : FairnessPolicy::kFifo;
    config.batcher.enabled = false;
    CollectiveRuntime rt(config);
    JobSpec blocker = group_job(0, 8, util::megabytes(1));
    blocker.min_wavelengths = 8;
    JobSpec elephant = group_job(0, 8, util::megabytes(64));
    elephant.min_wavelengths = 8;
    elephant.arrival = util::microseconds(1.0);
    JobSpec mouse = group_job(0, 8, util::kilobytes(16));
    mouse.min_wavelengths = 8;
    mouse.arrival = util::microseconds(2.0);
    rt.submit(blocker);
    rt.submit(elephant);
    rt.submit(mouse);
    rt.run();
    const std::vector<JobId> expected =
        sjf ? std::vector<JobId>{0, 2, 1} : std::vector<JobId>{0, 1, 2};
    EXPECT_EQ(rt.completion_order(), expected) << (sjf ? "sjf" : "fifo");
  }
}

TEST(RuntimeTrace, RecordsJobLifecycle) {
  RuntimeConfig config = small_ring_config(8);
  CollectiveRuntime rt(config);
  rt.trace().enable();
  rt.submit(group_job(0, 4, util::kilobytes(64)));
  rt.run();
  std::uint32_t admits = 0;
  std::uint32_t completes = 0;
  for (const sim::TraceEvent& e : rt.trace().events()) {
    if (e.kind == sim::TraceKind::kJobAdmit) ++admits;
    if (e.kind == sim::TraceKind::kJobComplete) ++completes;
    if (e.kind == sim::TraceKind::kJobAdmit ||
        e.kind == sim::TraceKind::kJobComplete) {
      // Band identity is recorded the same way on every job event: the
      // band BASE in b, the width in c.
      const JobRecord& r = rt.record(static_cast<JobId>(e.a));
      EXPECT_EQ(e.b, static_cast<std::int64_t>(r.band.base));
      EXPECT_EQ(e.c, static_cast<std::int64_t>(r.band.width));
    }
  }
  EXPECT_EQ(admits, 1u);
  EXPECT_EQ(completes, 1u);
}

}  // namespace
}  // namespace wrht::runtime
