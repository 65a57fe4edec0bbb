// SpectrumPlanner on a saturated spectrum.
//
// Two measurements, one verdict:
//
//   placement  a six-job scenario that saturates the 16-wavelength
//              spectrum and then springs first-fit's classic trap.  Four
//              jobs fill the spectrum at t=0; the two short ones release
//              non-adjacent holes [0,4) and [8,10).  A narrow long-lived
//              job (N, width 2) arrives first: first-fit would carve it
//              from the lowest hole, [0,2), stranding 2-wide slivers on
//              both sides, and the wide tenant (W, width 4) right behind it
//              would wait ~45 ms for a release.  The planner's best-fit
//              term parks N in the snug [8,10) hole, keeps [0,4) whole,
//              and admits W immediately.  The runtime no longer places
//              bands first-fit, so the planner's makespan is gated against
//              the first-fit makespan measured on this scenario at commit
//              696b28d, the last one with a first-fit placement option.
//              Every placement is still proven by the runtime's oracle
//              machinery.
//
//   routing    the stress-harness seed set (8 seeds x 60 jobs) under
//              kCostModelChoice: the congestion-aware model rides the
//              planner's contiguity-honest earliest_fit forecast for
//              optical backlog, so its promises must be kept strictly
//              better than the quiet alpha-beta baseline's (mean
//              |predicted - actual| completion error).  The quiet model is
//              gone; its error was measured at commit 24d4e70, the last
//              one with it.
//
//   $ ./bench/spectrum_alloc
#include <cstdio>
#include <vector>

#include "harness/bench_json.hpp"
#include "runtime/runtime.hpp"
#include "util/random.hpp"

namespace {

using namespace wrht;

constexpr std::uint32_t kRingSize = 32;
constexpr std::uint32_t kWavelengths = 16;
/// Makespan of the fragmentation trap under first-fit placement, measured
/// at commit 696b28d (the planner measured 58.7 ms there).
constexpr util::Seconds kFirstFitMakespanAt696b28d{0.1002002};
/// The planner must beat that first-fit makespan by more than this factor.
constexpr double kMinPlannerSpeedup = 1.59;
/// Mean per-seed routing error of the quiet alpha-beta model on the routing
/// arm's seeds, measured at commit 24d4e70.
constexpr double kQuietMeanErrorAt24d4e70 = 1.0290951300483191;

runtime::JobSpec span_job(const char* name, std::uint32_t first,
                          std::uint32_t len, std::uint32_t width,
                          util::Bytes payload, util::Seconds arrival) {
  runtime::JobSpec spec;
  for (std::uint32_t i = 0; i < len; ++i) {
    spec.participants.push_back(first + i);
  }
  spec.payload = payload;
  spec.min_wavelengths = width;
  spec.requested_wavelengths = width;
  spec.arrival = arrival;
  spec.name = name;
  return spec;
}

/// The fragmentation trap.  Widths are pinned (min == requested) and
/// elastic resize is off in this arm, so admission timing is decided by
/// placement alone; B, D, and N all drain near t=58 ms, which maximizes
/// the price first-fit would pay for blocking W behind its own sliver.
std::vector<runtime::JobSpec> placement_scenario() {
  return {
      span_job("A", 0, 6, 4, util::megabytes(5), util::Seconds(0.0)),
      span_job("B", 6, 6, 4, util::megabytes(130), util::Seconds(0.0)),
      span_job("C", 12, 4, 2, util::megabytes(2), util::Seconds(0.0)),
      span_job("D", 16, 7, 6, util::megabytes(134), util::Seconds(0.0)),
      span_job("N", 23, 4, 2, util::megabytes(95), util::milliseconds(12.0)),
      span_job("W", 27, 5, 4, util::megabytes(100), util::milliseconds(13.0)),
  };
}

runtime::RuntimeReport run_placement() {
  runtime::RuntimeConfig config;
  config.ring_size = kRingSize;
  config.optical.wdm.num_wavelengths = kWavelengths;
  config.batcher.enabled = false;
  config.placement = runtime::HybridPlacementPolicy::kOpticalOnly;
  config.policy = runtime::FairnessPolicy::kFifo;
  config.elastic_resize = false;
  runtime::CollectiveRuntime rt(config);
  for (const runtime::JobSpec& spec : placement_scenario()) rt.submit(spec);
  return rt.run();
}

/// Saturated seeded mix for the routing arm: contiguous spans with fixed
/// heterogeneous widths (2, 4, or 8 of 16) arriving within a 10 ms window.
std::vector<runtime::JobSpec> saturated_mix(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<runtime::JobSpec> jobs;
  for (std::uint32_t j = 0; j < 60; ++j) {
    runtime::JobSpec spec;
    const std::uint32_t len = rng.next_below(2) == 0 ? 4u : 8u;
    const std::uint32_t start =
        static_cast<std::uint32_t>(rng.next_below(4)) * 8u;
    for (std::uint32_t i = 0; i < len; ++i) {
      spec.participants.push_back((start + i) % kRingSize);
    }
    spec.payload = util::Bytes(64'000 + rng.next_below(8'000'000));
    spec.arrival =
        util::microseconds(static_cast<double>(rng.next_below(10'000)));
    spec.min_wavelengths = len == 4 ? 2u : (1u << (1 + rng.next_below(3)));
    spec.requested_wavelengths = spec.min_wavelengths;
    spec.priority = static_cast<std::int32_t>(rng.next_below(6)) - 2;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

const std::uint64_t kSeeds[] = {0ull,  0xC0FFEEull, 1ull,  2ull,
                                3ull,  7ull,        42ull, 20260730ull};

struct RoutingArm {
  double mean_error_sum = 0.0;
  std::uint32_t oracle_failures = 0;
};

RoutingArm run_routing() {
  RoutingArm arm;
  for (const std::uint64_t seed : kSeeds) {
    runtime::RuntimeConfig config;
    config.ring_size = kRingSize;
    config.optical.wdm.num_wavelengths = kWavelengths;
    config.batcher.enabled = false;
    config.policy = runtime::FairnessPolicy::kPriorityPreempt;
    config.elastic_resize = true;
    config.placement = runtime::HybridPlacementPolicy::kCostModelChoice;
    runtime::CollectiveRuntime rt(config);
    for (const runtime::JobSpec& spec : saturated_mix(seed)) rt.submit(spec);
    const runtime::RuntimeReport report = rt.run();
    arm.mean_error_sum += report.routing.mean_error;
    arm.oracle_failures += report.oracle_failures;
  }
  return arm;
}

}  // namespace

int main() {
  const runtime::RuntimeReport planner = run_placement();
  const RoutingArm aware = run_routing();

  const std::size_t seeds = sizeof(kSeeds) / sizeof(kSeeds[0]);
  const double speedup = kFirstFitMakespanAt696b28d / planner.makespan;

  std::printf("fragmentation trap: 6 jobs, %u-node ring, %u wavelengths\n\n",
              kRingSize, kWavelengths);
  std::printf("%-12s %-14s %-18s %s\n", "placement", "makespan",
              "mean turnaround", "speedup");
  std::printf("%-12s %-14s %-18s %7.2fx\n", "first-fit",
              util::to_string(kFirstFitMakespanAt696b28d).c_str(),
              "(at 696b28d)", 1.0);
  std::printf("%-12s %-14s %-18s %7.2fx\n", "planner",
              util::to_string(planner.makespan).c_str(),
              util::to_string(planner.mean_turnaround()).c_str(), speedup);

  std::printf("\nsaturated mix: %zu seeds x 60 jobs, cost-model routing\n\n",
              seeds);
  std::printf("%-12s %s\n", "routing", "mean |predicted-actual| error");
  std::printf("%-12s %.4f (at 24d4e70)\n", "quiet",
              kQuietMeanErrorAt24d4e70);
  std::printf("%-12s %.4f\n", "aware", aware.mean_error_sum / seeds);

  const bool placements_proven =
      planner.oracle_failures == 0 && aware.oracle_failures == 0;
  // The planner beats the recorded first-fit makespan by the margin it
  // held when both placements ran side by side, its routing promises are
  // kept strictly better than the quiet baseline's, and every placement is
  // oracle-proven.
  const bool ok = speedup > kMinPlannerSpeedup &&
                  aware.mean_error_sum / seeds < kQuietMeanErrorAt24d4e70 &&
                  placements_proven;
  std::printf("\nplanner beats first-fit at 696b28d (target > %.2fx), aware "
              "error < quiet at 24d4e70, all placements oracle-proven: %s\n",
              kMinPlannerSpeedup, ok ? "PASS" : "FAIL");

  harness::BenchJson json("spectrum_alloc");
  json.note("verdict", ok ? "PASS" : "FAIL");
  json.metric("planner_makespan_s", planner.makespan.value());
  json.metric("first_fit_makespan_s", kFirstFitMakespanAt696b28d.value());
  json.metric("planner_speedup", speedup);
  json.metric("planner_mean_turnaround_s",
              planner.mean_turnaround().value());
  json.metric("aware_mean_routing_error", aware.mean_error_sum / seeds);
  json.metric("quiet_mean_routing_error", kQuietMeanErrorAt24d4e70);
  json.write();
  return ok ? 0 : 1;
}
