// Exact nearest-rank quantiles and the SloStats computation over job
// records, checked against hand-computed values.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "runtime/job.hpp"
#include "util/random.hpp"

namespace wrht::obs {
namespace {

using runtime::JobRecord;
using runtime::JobState;
using util::Seconds;

TEST(ExactQuantile, NearestRankOnTenSamples) {
  // Deliberately unsorted: exact_quantile sorts its copy.
  const std::vector<double> samples = {7, 1, 9, 3, 10, 5, 2, 8, 4, 6};
  // Nearest rank: the ceil(q*10)-th smallest sample.
  EXPECT_EQ(exact_quantile(samples, 0.10), 1.0);   // ceil(1.0)  -> 1st
  EXPECT_EQ(exact_quantile(samples, 0.50), 5.0);   // ceil(5.0)  -> 5th
  EXPECT_EQ(exact_quantile(samples, 0.51), 6.0);   // ceil(5.1)  -> 6th
  EXPECT_EQ(exact_quantile(samples, 0.99), 10.0);  // ceil(9.9)  -> 10th
  EXPECT_EQ(exact_quantile(samples, 1.00), 10.0);
}

TEST(ExactQuantile, EdgeCases) {
  EXPECT_EQ(exact_quantile({}, 0.5), 0.0);
  EXPECT_EQ(exact_quantile({42.0}, 0.001), 42.0);
  EXPECT_EQ(exact_quantile({42.0}, 1.0), 42.0);
  // q clamped to (0, 1].
  EXPECT_EQ(exact_quantile({1.0, 2.0}, 0.0), 1.0);
  EXPECT_EQ(exact_quantile({1.0, 2.0}, 2.0), 2.0);
}

TEST(ExactQuantile, IsMonotoneInQ) {
  const std::vector<double> samples = {0.5, 0.1, 0.9, 0.3, 0.7};
  double prev = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = exact_quantile(samples, q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

JobRecord done_job(double arrival, double admitted, double completed,
                   double deadline = 0.0) {
  JobRecord record;
  record.state = JobState::kDone;
  record.spec.arrival = Seconds(arrival);
  record.spec.deadline = Seconds(deadline);
  record.admitted = Seconds(admitted);
  record.completed = Seconds(completed);
  return record;
}

TEST(ComputeSlo, MatchesHandComputedPercentiles) {
  // Four completed jobs with turnarounds 1, 2, 3, 4 s and slowdowns
  // 1, 2, 3, 4 (service span = turnaround / slowdown).
  std::vector<JobRecord> records;
  records.push_back(done_job(0.0, 0.0, 1.0));  // turnaround 1, service 1
  records.push_back(done_job(0.0, 1.0, 2.0));  // turnaround 2, service 1
  records.push_back(done_job(0.0, 2.0, 3.0));  // turnaround 3, service 1
  records.push_back(done_job(0.0, 3.0, 4.0));  // turnaround 4, service 1

  const SloStats slo = compute_slo(records);
  EXPECT_EQ(slo.jobs, 4u);
  // Nearest rank over {1,2,3,4}: p50 -> 2nd, p99/p999 -> 4th.
  EXPECT_EQ(slo.p50_turnaround, Seconds(2.0));
  EXPECT_EQ(slo.p99_turnaround, Seconds(4.0));
  EXPECT_EQ(slo.p999_turnaround, Seconds(4.0));
  EXPECT_EQ(slo.p50_slowdown, 2.0);
  EXPECT_EQ(slo.p99_slowdown, 4.0);
  // Worst admission wait is the 3 s of the last job.
  EXPECT_EQ(slo.max_wait, Seconds(3.0));
  // No deadlines carried.
  EXPECT_EQ(slo.deadline_jobs, 0u);
  EXPECT_EQ(slo.deadline_hit_rate(), 0.0);
}

TEST(ComputeSlo, ScoresDeadlinesOnlyWhereCarried) {
  std::vector<JobRecord> records;
  records.push_back(done_job(0.0, 0.0, 1.0, /*deadline=*/2.0));  // hit
  records.push_back(done_job(0.0, 0.0, 3.0, /*deadline=*/2.0));  // miss
  records.push_back(done_job(0.0, 0.0, 2.0, /*deadline=*/2.0));  // exact: hit
  records.push_back(done_job(0.0, 0.0, 9.0));  // no deadline: unscored

  const SloStats slo = compute_slo(records);
  EXPECT_EQ(slo.jobs, 4u);
  EXPECT_EQ(slo.deadline_jobs, 3u);
  EXPECT_EQ(slo.deadline_hits, 2u);
  EXPECT_DOUBLE_EQ(slo.deadline_hit_rate(), 2.0 / 3.0);
}

TEST(ComputeSlo, SkipsEverythingNotDone) {
  std::vector<JobRecord> records;
  records.push_back(done_job(0.0, 0.0, 1.0));
  JobRecord rejected;
  rejected.state = JobState::kRejected;
  records.push_back(rejected);
  JobRecord queued;
  queued.state = JobState::kQueued;
  queued.spec.deadline = Seconds(1.0);  // must not count as a deadline job
  records.push_back(queued);

  const SloStats slo = compute_slo(records);
  EXPECT_EQ(slo.jobs, 1u);
  EXPECT_EQ(slo.deadline_jobs, 0u);
  EXPECT_EQ(slo.p50_turnaround, Seconds(1.0));
}

TEST(ComputeSlo, ZeroServiceSpanReportsSlowdownOne) {
  // Admitted and completed at the same instant (degenerate but possible in
  // a zero-payload stub): slowdown defined as 1.0, not a division by zero.
  std::vector<JobRecord> records;
  records.push_back(done_job(0.0, 1.0, 1.0));
  const SloStats slo = compute_slo(records);
  EXPECT_EQ(slo.p50_slowdown, 1.0);
}

TEST(ComputeSlo, QuantilesEqualExactQuantileOnRandomSeriesWithTies) {
  // compute_slo sorts each series once and reads three ranks; every value
  // must equal exact_quantile's sort-per-call answer bit for bit.  Few
  // distinct times, so both series are full of ties.
  util::Rng rng(0x510);
  for (const std::size_t n : {0, 1, 2, 3, 7, 1000}) {
    std::vector<JobRecord> records;
    std::vector<double> turnarounds;
    std::vector<double> slowdowns;
    for (std::size_t i = 0; i < n; ++i) {
      const double arrival = 0.5 * static_cast<double>(rng.next_below(3));
      const double admitted = arrival + 0.25 * static_cast<double>(
                                                   rng.next_below(4));
      const double completed =
          admitted + 0.125 * static_cast<double>(rng.next_below(5));
      records.push_back(done_job(arrival, admitted, completed));
      turnarounds.push_back(records.back().turnaround().value());
      const double service = completed - admitted;
      slowdowns.push_back(service > 0.0 ? (completed - arrival) / service
                                        : 1.0);
    }
    const SloStats slo = compute_slo(records);
    EXPECT_EQ(slo.jobs, n);
    EXPECT_EQ(slo.p50_turnaround.value(), exact_quantile(turnarounds, 0.50));
    EXPECT_EQ(slo.p99_turnaround.value(), exact_quantile(turnarounds, 0.99));
    EXPECT_EQ(slo.p999_turnaround.value(),
              exact_quantile(turnarounds, 0.999));
    EXPECT_EQ(slo.p50_slowdown, exact_quantile(slowdowns, 0.50));
    EXPECT_EQ(slo.p99_slowdown, exact_quantile(slowdowns, 0.99));
    EXPECT_EQ(slo.p999_slowdown, exact_quantile(slowdowns, 0.999));
  }
}

TEST(ComputeSlo, EmptyInputIsAllZeros) {
  const SloStats slo = compute_slo({});
  EXPECT_EQ(slo.jobs, 0u);
  EXPECT_EQ(slo.p50_turnaround, Seconds(0.0));
  EXPECT_EQ(slo.max_wait, Seconds(0.0));
  EXPECT_EQ(slo.deadline_hit_rate(), 0.0);
}

}  // namespace
}  // namespace wrht::obs
