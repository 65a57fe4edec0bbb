// The streaming frontend's equivalence claim, and the golden digests that
// pin serve()'s behaviour:
//
//   1. serve() (specs pulled one at a time off a JobSource, arrival events
//      chained) produces the SAME RuntimeReport as run() (every spec
//      submitted up front) on the same workload.
//   2. On four seeded configurations — optical-only FIFO, electrical
//      overflow onto the shared two-level fabric, a chaos mix of cost-model
//      routing, priority preemption, elastic resize and faults, and that
//      mix at 8x the fault rate with pinned electrical tenants — the
//      report's FNV-1a digest equals a pinned constant.  Any change to
//      the event loop, admission queue, spectrum arbiter or substrates that
//      moves a single report field (doubles printed exactly) breaks it.
//
// Doubles are compared with EXPECT_EQ on purpose: bit-identity is the
// claim, not approximate agreement.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/faults.hpp"
#include "runtime/runtime.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

namespace wrht::runtime {
namespace {

workload::WorkloadConfig small_workload(std::uint64_t jobs, double rate) {
  workload::WorkloadConfig w;
  w.seed = 5;
  w.num_jobs = jobs;
  w.ring_size = 32;
  w.mean_rate = rate;
  w.payload_median = util::kilobytes(128);
  w.max_payload = util::megabytes(4);
  w.max_participants = 12;
  return w;
}

RuntimeConfig base_config() {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 32;
  config.policy = FairnessPolicy::kFifo;
  config.default_request = 4;
  config.batcher.enabled = false;
  return config;
}

RuntimeReport run_materialized(const workload::WorkloadConfig& w,
                               const RuntimeConfig& config) {
  workload::WorkloadGenerator gen(w);
  CollectiveRuntime rt(config);
  while (std::optional<JobSpec> spec = gen.next()) {
    rt.submit(std::move(*spec));
  }
  return rt.run();
}

RuntimeReport run_streamed(const workload::WorkloadConfig& w,
                           const RuntimeConfig& config) {
  workload::WorkloadGenerator gen(w);
  CollectiveRuntime rt(config);
  return rt.serve(gen);
}

void expect_reports_identical(const RuntimeReport& a, const RuntimeReport& b) {
  EXPECT_EQ(a.makespan.value(), b.makespan.value());
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_retunes, b.total_retunes);
  EXPECT_EQ(a.spectrum_reservations, b.spectrum_reservations);
  EXPECT_EQ(a.peak_concurrent_jobs, b.peak_concurrent_jobs);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.resumes, b.resumes);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.step_retimes, b.step_retimes);
  EXPECT_EQ(a.electrical_link_peak, b.electrical_link_peak);
  EXPECT_EQ(a.total_turnaround.value(), b.total_turnaround.value());
  EXPECT_EQ(a.optical.jobs, b.optical.jobs);
  EXPECT_EQ(a.optical.executions, b.optical.executions);
  EXPECT_EQ(a.optical.steps, b.optical.steps);
  EXPECT_EQ(a.optical.makespan.value(), b.optical.makespan.value());
  EXPECT_EQ(a.electrical.jobs, b.electrical.jobs);
  EXPECT_EQ(a.electrical.steps, b.electrical.steps);
  EXPECT_EQ(a.electrical.makespan.value(), b.electrical.makespan.value());
  EXPECT_EQ(a.electrical.busy_time.value(), b.electrical.busy_time.value());
  EXPECT_EQ(a.slo.jobs, b.slo.jobs);
  EXPECT_EQ(a.slo.p50_turnaround.value(), b.slo.p50_turnaround.value());
  EXPECT_EQ(a.slo.p99_turnaround.value(), b.slo.p99_turnaround.value());
  EXPECT_EQ(a.slo.p999_turnaround.value(), b.slo.p999_turnaround.value());
  EXPECT_EQ(a.slo.p50_slowdown, b.slo.p50_slowdown);
  EXPECT_EQ(a.slo.p99_slowdown, b.slo.p99_slowdown);
  EXPECT_EQ(a.slo.max_wait.value(), b.slo.max_wait.value());
  EXPECT_EQ(a.slo.deadline_jobs, b.slo.deadline_jobs);
  EXPECT_EQ(a.slo.deadline_hits, b.slo.deadline_hits);
}

TEST(RuntimeServe, StreamingServeMatchesMaterializedRun) {
  const workload::WorkloadConfig w = small_workload(800, 2000.0);
  const RuntimeConfig config = base_config();
  expect_reports_identical(run_materialized(w, config),
                           run_streamed(w, config));
}

/// FNV-1a over every report field (doubles printed exactly); the same
/// fields, in the same order, as perfbench's report digest.
std::uint64_t report_digest(const RuntimeReport& r) {
  std::string text;
  const auto num = [&text](double v) {
    text += std::isfinite(v) ? workload::format_double_exact(v) : "nonfinite";
    text += ',';
  };
  const auto count = [&text](std::uint64_t v) {
    text += std::to_string(v);
    text += ',';
  };
  const auto breakdown = [&](const SubstrateBreakdown& b) {
    count(b.jobs);
    count(b.executions);
    count(b.steps);
    num(b.makespan.value());
    num(b.busy_time.value());
    num(b.quiet_time.value());
  };
  num(r.makespan.value());
  count(r.submitted);
  count(r.completed);
  count(r.rejected);
  count(r.executions);
  count(r.batches);
  count(r.total_steps);
  count(r.total_retunes);
  count(r.spectrum_reservations);
  count(r.peak_concurrent_jobs);
  count(r.oracle_failures);
  count(r.preemptions);
  count(r.resumes);
  count(r.resizes);
  count(r.step_retimes);
  count(r.replay_checked_steps);
  for (const double peak : r.electrical_link_peak) num(peak);
  num(r.total_turnaround.value());
  count(r.routing.decisions);
  count(r.routing.to_optical);
  count(r.routing.to_electrical);
  num(r.routing.mean_error);
  num(r.routing.worst_error);
  breakdown(r.optical);
  breakdown(r.electrical);
  const obs::SloStats& slo = r.slo;
  count(slo.jobs);
  num(slo.p50_turnaround.value());
  num(slo.p99_turnaround.value());
  num(slo.p999_turnaround.value());
  num(slo.p50_slowdown);
  num(slo.p99_slowdown);
  num(slo.p999_slowdown);
  num(slo.max_wait.value());
  count(slo.deadline_jobs);
  count(slo.deadline_hits);
  const FaultStats& f = r.faults;
  count(f.injected);
  count(f.transceiver_faults);
  count(f.node_faults);
  count(f.tor_faults);
  count(f.wavelength_faults);
  count(f.repairs);
  count(f.disrupted_executions);
  count(f.evictions);
  count(f.restarts);
  count(f.migrations);
  count(f.fault_preemptions);
  count(f.killed_jobs);
  count(f.recoveries);
  num(f.total_recovery.value());
  num(f.wasted_step_time.value());
  num(r.step_time_total.value());

  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// The first three pinned constants below were computed before the event
// loop lost its second (unflattened) implementation, and both
// implementations produced them.  The fault-recovery constant was computed
// before the fault bookkeeping moved from the runtime into the substrates.
// A changed digest means changed behaviour: find the cause rather than
// re-pinning.

TEST(RuntimeServe, GoldenDigestOpticalFifo) {
  // Above-capacity optical-only FIFO: the admission queue's head take and
  // the first-eligible early exit run on every completion.
  const RuntimeReport report =
      run_streamed(small_workload(1000, 3000.0), base_config());
  EXPECT_EQ(report.completed, 1000u);
  EXPECT_EQ(report_digest(report), 0x419b7a8bca58cea8ULL);
}

TEST(RuntimeServe, GoldenDigestHybridElectricalOverflow) {
  // Overflow load spills onto the shared two-level electrical fabric, so
  // this run exercises the windowed flow-network clone, batched session
  // retirement, AND the whole-horizon replay audit.
  RuntimeConfig config = base_config();
  config.placement = HybridPlacementPolicy::kElectricalOverflow;
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.oversubscription = 4.0;
  const RuntimeReport report =
      run_streamed(small_workload(600, 4000.0), config);
  EXPECT_GT(report.electrical.jobs, 0u);
  // The audit actually ran: the shared fabric re-proved its steps.
  EXPECT_GT(report.replay_checked_steps, 0u);
  EXPECT_EQ(report_digest(report), 0x33bea8f07707e4b5ULL);
}

TEST(RuntimeServe, GoldenDigestRoutedChaos) {
  // Cost-model routing with priority preemption, elastic resize and a
  // fault stream: covers the arbiter's what-if probe, band grow/shrink and
  // the fault-recovery renegotiations.
  workload::WorkloadConfig w = small_workload(600, 50000.0);
  w.fault_horizon = util::Seconds(1.0);
  w.transceiver_mtbf = util::Seconds(0.05);
  w.node_mtbf = util::Seconds(0.08);
  w.tor_mtbf = util::Seconds(0.15);
  w.wavelength_mtbf = util::Seconds(0.06);
  w.fault_mttr = util::Seconds(0.01);
  w.fault_num_wavelengths = 32;
  w.fault_num_tors = 4;
  RuntimeConfig config = base_config();
  config.placement = HybridPlacementPolicy::kCostModelChoice;
  config.routing_cost_model = RoutingCostModel::kCongestionAware;
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  config.electrical.oversubscription = 4.0;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.elastic_resize = true;

  workload::WorkloadGenerator gen(w);
  FaultInjector injector = gen.make_fault_injector();
  config.faults = &injector;
  CollectiveRuntime rt(config);
  const RuntimeReport report = rt.serve(gen);
  EXPECT_GT(report.preemptions, 0u);
  EXPECT_GT(report.resizes, 0u);
  EXPECT_GT(report.faults.injected, 0u);
  EXPECT_EQ(report_digest(report), 0xa6cff5c3ffb90341ULL);
}

/// Pins every 5th spec (the 1st, 6th, ...) to the electrical fabric, with
/// priority alternating 3, 0, 3, ... among the pinned ones, so urgent
/// pinned arrivals preempt electrical tenants for their own hosts.
class PinEveryFifthElectrical final : public JobSource {
 public:
  explicit PinEveryFifthElectrical(JobSource& inner) : inner_(inner) {}
  std::optional<JobSpec> next() override {
    std::optional<JobSpec> spec = inner_.next();
    if (spec && seen_++ % 5 == 0) {
      spec->pin = SubstratePin::kElectricalOnly;
      spec->priority = pinned_++ % 2 == 0 ? 3 : 0;
    }
    return spec;
  }

 private:
  JobSource& inner_;
  std::uint64_t seen_ = 0;
  std::uint64_t pinned_ = 0;
};

TEST(RuntimeServe, GoldenDigestFaultRecoveryAndHostPreemption) {
  // The routed-chaos mix at 8x its fault rate plus a pinned electrical
  // tenant class.  Reaches what the routed-chaos golden does not:
  // cross-substrate migration, fault suspension, kills, and host-claim
  // preemption.  Aging stays off.
  workload::WorkloadConfig w = small_workload(1000, 1500.0);
  w.seed = 3;
  w.fault_horizon = util::Seconds(1.0);
  w.transceiver_mtbf = util::Seconds(0.05 / 8.0);
  w.node_mtbf = util::Seconds(0.08 / 8.0);
  w.tor_mtbf = util::Seconds(0.15 / 8.0);
  w.wavelength_mtbf = util::Seconds(0.06 / 8.0);
  w.fault_mttr = util::Seconds(0.01);
  w.fault_num_wavelengths = 32;
  w.fault_num_tors = 4;
  RuntimeConfig config = base_config();
  config.placement = HybridPlacementPolicy::kCostModelChoice;
  config.routing_cost_model = RoutingCostModel::kCongestionAware;
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 8;
  config.electrical.oversubscription = 4.0;
  config.policy = FairnessPolicy::kPriorityPreempt;
  config.elastic_resize = true;

  workload::WorkloadGenerator gen(w);
  FaultInjector injector = gen.make_fault_injector();
  config.faults = &injector;
  PinEveryFifthElectrical source(gen);
  CollectiveRuntime rt(config);
  const RuntimeReport report = rt.serve(source);
  EXPECT_GT(report.preemptions, 0u);
  EXPECT_GT(report.resizes, 0u);
  EXPECT_GT(report.faults.evictions, 0u);
  EXPECT_GT(report.faults.restarts, 0u);
  EXPECT_GT(report.faults.migrations, 0u);
  EXPECT_GT(report.faults.fault_preemptions, 0u);
  EXPECT_GT(report.faults.killed_jobs, 0u);
  EXPECT_EQ(report_digest(report), 0x1bfbd2fd08028730ULL);
}

TEST(RuntimeServe, PreSubmittedJobsServeAheadOfTheSource) {
  // serve() also honors jobs submitted before it starts: they are the
  // t<first-arrival prefix of the same deterministic timeline.
  const workload::WorkloadConfig w = small_workload(100, 1000.0);

  workload::WorkloadGenerator all(w);
  CollectiveRuntime together(base_config());
  const RuntimeReport expected = together.serve(all);

  workload::WorkloadGenerator split(w);
  CollectiveRuntime rt(base_config());
  // Hand the first ten specs over as pre-submissions...
  for (int i = 0; i < 10; ++i) {
    rt.submit(std::move(*split.next()));
  }
  // ...and stream the rest.
  const RuntimeReport report = rt.serve(split);
  expect_reports_identical(expected, report);
}

TEST(RuntimeServe, ServeAfterRunDies) {
  CollectiveRuntime rt(base_config());
  JobSpec spec;
  spec.participants = {0, 1, 2};
  spec.payload = util::kilobytes(64);
  rt.submit(spec);
  rt.run();
  workload::WorkloadGenerator gen(small_workload(5, 100.0));
  EXPECT_DEATH(rt.serve(gen), "serve");
}

}  // namespace
}  // namespace wrht::runtime
