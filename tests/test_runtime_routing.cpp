// Congestion-aware cost-model routing (RoutingCostModel::kCongestionAware)
// and its per-decision audit trail.
//
// The quiet alpha-beta comparison is kept as an ablation baseline; on idle
// fabrics the two models must agree decision-for-decision (no congestion
// to fold in, no backlog to wait out).  Under saturation they diverge in
// exactly two ways, each pinned by a test here: a hot shared electrical
// fabric repels borderline spill (uplink residuals), and a backed-up
// optical ring stops holding predicted-faster-optical jobs hostage
// (spectrum queue-wait).  Every bound decision is traced (kRouteDecision,
// carrying both predicted completions) and scored against the job's actual
// completion in RuntimeReport::routing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/runtime.hpp"

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

RuntimeConfig cost_choice_config(RoutingCostModel model) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.placement = HybridPlacementPolicy::kCostModelChoice;
  config.routing_cost_model = model;
  return config;
}

TEST(CongestionAwareRouting, MatchesQuietModelOnIdleFabrics) {
  // Spectrum free, star fallback idle: predict_completion degenerates to
  // now + predict_makespan on both sides, so the two models must place
  // every job identically (the PR-3 scenario: tiny latency-bound job goes
  // electrical, huge bandwidth-bound job stays optical).
  auto run_model = [](RoutingCostModel model) {
    CollectiveRuntime rt(cost_choice_config(model));
    JobSpec tiny = span_job(0, 8, util::kilobytes(64));
    tiny.min_wavelengths = 2;
    rt.submit(tiny);
    JobSpec huge = span_job(16, 8, util::megabytes(256));
    huge.min_wavelengths = 2;
    huge.requested_wavelengths = 8;
    rt.submit(huge);
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 2u);
    return std::vector<SubstrateKind>{rt.record(0).substrate,
                                      rt.record(1).substrate};
  };
  const auto quiet = run_model(RoutingCostModel::kQuietAlphaBeta);
  const auto aware = run_model(RoutingCostModel::kCongestionAware);
  EXPECT_EQ(quiet, aware);
  EXPECT_EQ(quiet[0], SubstrateKind::kElectrical);
  EXPECT_EQ(quiet[1], SubstrateKind::kOptical);
}

RuntimeConfig saturated_shared_config(RoutingCostModel model) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 8;
  config.batcher.enabled = false;
  config.placement = HybridPlacementPolicy::kCostModelChoice;
  config.routing_cost_model = model;
  config.electrical.fabric = ElectricalFabric::kTwoLevelShared;
  config.electrical.hosts_per_tor = 16;
  config.electrical.oversubscription = 8.0;
  return config;
}

/// Sixteen disjoint ToR-straddling pairs {j, 16+j}: nothing host-blocks,
/// so quiet routing spills every one onto the same oversubscribed uplinks.
void submit_straddling_burst(CollectiveRuntime& rt) {
  for (std::uint32_t j = 0; j < 16; ++j) {
    JobSpec spec;
    spec.participants = {j, 16 + j};
    spec.payload = util::megabytes(2);
    spec.requested_wavelengths = 1;
    spec.arrival = util::microseconds(40.0 * j);
    rt.submit(spec);
  }
}

TEST(CongestionAwareRouting, SaturatedUplinksRepelOverspill) {
  auto run_model = [](RoutingCostModel model) {
    CollectiveRuntime rt(saturated_shared_config(model));
    submit_straddling_burst(rt);
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 16u);
    return report;
  };
  const RuntimeReport quiet = run_model(RoutingCostModel::kQuietAlphaBeta);
  const RuntimeReport aware = run_model(RoutingCostModel::kCongestionAware);

  // The quiet model, blind to its own spill, dumps the whole burst onto
  // the electrical fabric; the congestion-aware model stops once the
  // stretched prediction loses the comparison, and the split run finishes
  // sooner with less contention.
  EXPECT_EQ(quiet.routing.to_electrical, 16u);
  EXPECT_GT(aware.routing.to_optical, 0u);
  EXPECT_LT(aware.routing.to_electrical, quiet.routing.to_electrical);
  EXPECT_LT(aware.makespan, quiet.makespan);
  EXPECT_LT(aware.electrical.contention_slowdown(),
            quiet.electrical.contention_slowdown());
  // And its promises were better kept.
  EXPECT_LT(aware.routing.mean_error, quiet.routing.mean_error);
}

TEST(CongestionAwareRouting, PriceTracksADrainingFabric) {
  // Two waves of ToR-straddling pairs.  The first saturates the uplinks at
  // t=0; the second lands while those flows are still in flight but close
  // to draining.  The electrical price reads the max-min share the
  // arrivals get from the fabric as it is at that instant, so the aware
  // model's promises track the actual (draining) fabric better than the
  // quiet model's contention-blind ones.
  auto wave = [](CollectiveRuntime& rt, std::uint32_t first,
                 std::uint32_t count, util::Seconds arrival) {
    for (std::uint32_t j = first; j < first + count; ++j) {
      JobSpec spec;
      spec.participants = {j, 16 + j};
      spec.payload = util::megabytes(4);
      spec.requested_wavelengths = 1;
      spec.arrival = arrival;
      rt.submit(spec);
    }
  };

  // Self-calibrate: time the first wave alone, then land the second wave
  // at 80% of that makespan — busy uplinks, predictably nearly drained.
  util::Seconds drain{0.0};
  {
    CollectiveRuntime alone(
        saturated_shared_config(RoutingCostModel::kQuietAlphaBeta));
    wave(alone, 0, 8, util::Seconds(0.0));
    drain = alone.run().makespan;
  }
  const util::Seconds second_wave = util::Seconds(drain.value() * 0.8);

  auto run_model = [&](RoutingCostModel model) {
    CollectiveRuntime rt(saturated_shared_config(model));
    wave(rt, 0, 8, util::Seconds(0.0));
    wave(rt, 8, 8, second_wave);
    const RuntimeReport report = rt.run();
    EXPECT_EQ(report.completed, 16u);
    return report;
  };
  const RuntimeReport quiet = run_model(RoutingCostModel::kQuietAlphaBeta);
  const RuntimeReport aware = run_model(RoutingCostModel::kCongestionAware);

  // The draining fabric must not repel the whole second wave — nearly-done
  // tenants free the uplinks within the arrivals' spans.
  EXPECT_GT(aware.routing.to_electrical, 0u);
  // And the priced promises are kept better than the blind ones.
  EXPECT_LT(aware.routing.mean_error, quiet.routing.mean_error);
}

TEST(CongestionAwareRouting, SpectrumBacklogRoutesAroundTheRing) {
  // A hog pins the whole spectrum for tens of milliseconds.  The straddler
  // that arrives next is quietly predicted faster on the optical ring — so
  // the quiet model leaves it queued behind the hog — but the queue-wait
  // fold makes the idle electrical fabric win, and it finishes long before
  // the hog releases anything.
  auto run_model = [](RoutingCostModel model) {
    RuntimeConfig config = cost_choice_config(model);
    config.optical.wdm.num_wavelengths = 8;
    CollectiveRuntime rt(config);
    JobSpec hog = span_job(0, 16, util::megabytes(128));
    hog.requested_wavelengths = 8;
    hog.min_wavelengths = 8;
    rt.submit(hog);
    JobSpec pair = span_job(20, 2, util::megabytes(8),
                            util::milliseconds(1.0));
    pair.requested_wavelengths = 1;
    rt.submit(pair);
    rt.run();
    return rt.record(1);
  };
  const JobRecord quiet = run_model(RoutingCostModel::kQuietAlphaBeta);
  const JobRecord aware = run_model(RoutingCostModel::kCongestionAware);
  EXPECT_EQ(quiet.substrate, SubstrateKind::kOptical);
  EXPECT_EQ(aware.substrate, SubstrateKind::kElectrical);
  EXPECT_LT(aware.completed, quiet.completed);
}

TEST(RoutingAudit, EveryDecisionIsTracedWithBothPredictions) {
  CollectiveRuntime rt(saturated_shared_config(
      RoutingCostModel::kCongestionAware));
  rt.trace().enable();
  submit_straddling_burst(rt);
  const RuntimeReport report = rt.run();

  std::uint32_t traced = 0;
  for (const sim::TraceEvent& event : rt.trace().events()) {
    if (event.kind != sim::TraceKind::kRouteDecision) continue;
    ++traced;
    const JobRecord& record = rt.record(static_cast<JobId>(event.a));
    EXPECT_GT(record.predicted_optical.value(), 0.0);
    EXPECT_GT(record.predicted_electrical.value(), 0.0);
    EXPECT_EQ(event.c, -1);
    const auto kind = static_cast<SubstrateKind>(event.b);
    EXPECT_EQ(kind, record.substrate);
    // The chosen fabric's prediction is the one the audit scores.
    EXPECT_EQ(record.predicted_completion,
              kind == SubstrateKind::kElectrical ? record.predicted_electrical
                                                 : record.predicted_optical);
  }
  EXPECT_EQ(traced, report.completed);
  EXPECT_EQ(report.routing.decisions, report.completed);
  EXPECT_EQ(report.routing.to_optical + report.routing.to_electrical,
            report.routing.decisions);

  // Every audited job carries its frozen prediction and a finite error,
  // and the aggregates reconcile with the records.
  double worst = 0.0;
  for (JobId id = 0; id < rt.num_jobs(); ++id) {
    const JobRecord& record = rt.record(id);
    EXPECT_GT(record.predicted_completion.value(), 0.0);
    EXPECT_GE(record.routing_error, 0.0);
    worst = std::max(worst, record.routing_error);
  }
  EXPECT_DOUBLE_EQ(report.routing.worst_error, worst);
  EXPECT_GE(report.routing.worst_error, report.routing.mean_error);
}

TEST(RoutingAudit, LonePredictionIsNearExactOnAnIdleStar) {
  // One job, empty fabrics: nothing the router cannot see, so the
  // prediction must land on the actual completion (the alpha-beta model
  // and the flow simulation agree exactly on the patterns the fallback
  // picks).
  CollectiveRuntime rt(cost_choice_config(RoutingCostModel::kCongestionAware));
  JobSpec tiny = span_job(0, 4, util::kilobytes(256));
  rt.submit(tiny);
  const RuntimeReport report = rt.run();
  ASSERT_EQ(report.routing.decisions, 1u);
  EXPECT_EQ(rt.record(0).substrate, SubstrateKind::kElectrical);
  EXPECT_LT(report.routing.worst_error, 1e-6);
}

TEST(RoutingAudit, OtherPlacementsRecordNoDecisions) {
  RuntimeConfig config;
  config.ring_size = 32;
  config.optical.wdm.num_wavelengths = 16;
  config.batcher.enabled = false;
  config.placement = HybridPlacementPolicy::kElectricalOverflow;
  CollectiveRuntime rt(config);
  rt.submit(span_job(0, 8, util::megabytes(1)));
  const RuntimeReport report = rt.run();
  EXPECT_EQ(report.routing.decisions, 0u);
  EXPECT_EQ(rt.record(0).predicted_completion.value(), 0.0);
}

}  // namespace
}  // namespace wrht::runtime
