// Cross-module integration: the full pipelines a user of the library would
// compose — build a schedule, check it functionally, route it optically,
// time it three ways, and tie the DNN catalog into the training model with
// real all-reduce times from the simulators.
#include <gtest/gtest.h>

#include "coll/algorithms.hpp"
#include "coll/cost_model.hpp"
#include "coll/oracle.hpp"
#include "coll/validation.hpp"
#include "dnn/catalog.hpp"
#include "dnn/training.hpp"
#include "elec/schedule_runner.hpp"
#include "harness/fig2.hpp"
#include "optical/network.hpp"
#include "wrht/analysis.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"
#include "wrht/striping.hpp"
#include "wrht/time_model.hpp"

namespace wrht {
namespace {

using util::Bytes;
using util::Seconds;

TEST(Integration, WrhtEndToEndPipeline) {
  // Build -> validate -> verify -> route -> simulate -> analyze.
  const std::uint32_t n = 100;
  core::WrhtParams params;
  params.num_wavelengths = 16;
  const core::WrhtBuild build = core::build_wrht(n, params);

  ASSERT_TRUE(coll::validate(build.annotated.schedule).ok());
  ASSERT_TRUE(
      coll::Oracle::verify_allreduce(build.annotated.schedule, 64).ok);

  optical::OpticalParams optical;
  optical.wdm.num_wavelengths = 16;
  const Bytes payload(100'000'000);
  const optical::RunResult run =
      core::run_on_optical(build.annotated, optical, payload);
  EXPECT_GT(run.total.value(), 0.0);
  EXPECT_EQ(run.steps.size(), build.annotated.schedule.num_steps());

  const core::WrhtAnalysis analysis = core::analyze(build, payload);
  EXPECT_EQ(analysis.total_steps, build.annotated.schedule.num_steps());
  EXPECT_LE(analysis.max_lambda, 16u);
  const std::string report = analysis.report();
  EXPECT_NE(report.find("group size m"), std::string::npos);
  EXPECT_NE(report.find("steps"), std::string::npos);
}

TEST(Integration, AnalysisMatchesPaperFormula) {
  core::WrhtParams params;
  params.num_wavelengths = 64;
  for (const std::uint32_t n : {128u, 256u, 512u, 1024u}) {
    const core::WrhtBuild build = core::build_wrht(n, params);
    const core::WrhtAnalysis analysis = core::analyze(build, Bytes(1000));
    EXPECT_EQ(analysis.total_steps, analysis.paper_formula_steps)
        << "n=" << n;
    EXPECT_EQ(analysis.ring_steps, 2 * (n - 1));
  }
}

TEST(Integration, SameScheduleThreeTimingModelsAgreeOnOptical) {
  const std::uint32_t n = 64;
  core::WrhtParams wp;
  wp.num_wavelengths = 8;
  const core::WrhtBuild build = core::build_wrht(n, wp);
  optical::OpticalParams p;
  p.wdm.num_wavelengths = 8;
  const Bytes payload(50'000'000);

  const double des = core::run_on_optical(build.annotated, p, payload)
                         .total.value();
  const double analytic =
      core::analytic_schedule_time(build.annotated, payload, p).value();
  const double formula =
      core::wrht_time_formula(n, payload, p, wp).value();
  EXPECT_NEAR(des, analytic, analytic * 1e-12);
  EXPECT_NEAR(formula, analytic, analytic * 1e-3);
}

TEST(Integration, ElectricalAndOpticalRunSameRingSchedule) {
  const std::uint32_t n = 16;
  const coll::Schedule schedule = coll::ring_allreduce(n);
  const Bytes payload(16'000'000);

  const elec::ElectricalCluster cluster =
      elec::ElectricalCluster::star(n, elec::ElectricalParams{});
  const double electrical =
      elec::run_on_electrical(schedule, cluster, payload).total.value();

  const topo::RingTopology ring(n);
  const auto annotated = core::annotate_on_ring(schedule, ring, 1);
  ASSERT_TRUE(annotated.has_value());
  optical::OpticalParams p;
  const double optical_time =
      core::run_on_optical(*annotated, p, payload).total.value();

  EXPECT_GT(electrical, 0.0);
  EXPECT_GT(optical_time, 0.0);
  // With default physics the per-step optical overhead dominates at this
  // chunk size, so the optical ring is slower — the paper's observation.
  EXPECT_GT(optical_time, electrical);
}

TEST(Integration, TrainingIterationWithSimulatedAllReduce) {
  // Close the loop: per-bucket all-reduce times come from the Wrht formula,
  // feeding the overlap-aware training timeline.
  const dnn::Model model = dnn::resnet50();
  const std::uint32_t n = 256;
  core::WrhtParams wp;
  wp.num_wavelengths = 64;
  optical::OpticalParams p;

  dnn::TrainingParams training;
  training.overlap = true;
  const auto timeline = dnn::simulate_iteration(
      model, training, [&](Bytes bytes) {
        return core::wrht_time_formula(n, bytes, p, wp);
      });
  EXPECT_GT(timeline.num_buckets, 1u);
  EXPECT_GT(timeline.total_time.value(), timeline.compute_time.value() - 1e-9);

  // The same iteration on the electrical cluster must expose more
  // communication time.
  const auto analytic_ring = [&](Bytes bytes) {
    const coll::AlphaBetaParams ab{util::microseconds(50.0),
                                   util::gbps(10.0)};
    return coll::ring_allreduce_closed_form(n, bytes, ab);
  };
  const auto electrical_timeline =
      dnn::simulate_iteration(model, training, analytic_ring);
  EXPECT_GE(electrical_timeline.total_time.value(),
            timeline.total_time.value());
}

TEST(Integration, StripedWrhtStillCorrectAndFaster) {
  const std::uint32_t n = 80;
  core::WrhtParams wp;
  wp.num_wavelengths = 32;
  const core::WrhtBuild build = core::build_wrht(n, wp);
  const Bytes payload(200'000'000);
  const core::AnnotatedSchedule striped =
      core::apply_striping(build.annotated, 32, payload);

  ASSERT_TRUE(coll::Oracle::verify_allreduce(striped.schedule, 16).ok);
  optical::OpticalParams p;
  p.wdm.num_wavelengths = 32;
  const double base =
      core::run_on_optical(build.annotated, p, payload).total.value();
  const double after = core::run_on_optical(striped, p, payload).total.value();
  EXPECT_LT(after, base);
}

TEST(Integration, EveryBaselineRunsOnBothSubstrates) {
  const std::uint32_t n = 12;
  const Bytes payload(1'000'000);
  const elec::ElectricalCluster cluster =
      elec::ElectricalCluster::star(n, elec::ElectricalParams{});
  const topo::RingTopology ring(n);
  optical::OpticalParams p;

  const coll::Schedule schedules[] = {
      coll::ring_allreduce(n),    coll::recursive_doubling(n),
      coll::halving_doubling(n),  coll::binomial_tree(n),
      coll::direct_allreduce(n),  coll::naive_ring(n),
  };
  for (const coll::Schedule& schedule : schedules) {
    const double electrical =
        elec::run_on_electrical(schedule, cluster, payload).total.value();
    EXPECT_GT(electrical, 0.0) << schedule.name();
    const auto annotated = core::annotate_on_ring(schedule, ring, 64);
    ASSERT_TRUE(annotated.has_value()) << schedule.name();
    const double optical_time =
        core::run_on_optical(*annotated, p, payload).total.value();
    EXPECT_GT(optical_time, 0.0) << schedule.name();
  }
}

TEST(Integration, HarnessSmokeMatchesDirectCalls) {
  harness::ExperimentConfig config = harness::paper_config();
  const Bytes payload(10'000'000);
  const double via_harness =
      harness::allreduce_time(harness::Algo::kWrht, 64, payload, config)
          .value();
  core::WrhtParams wp;
  wp.num_wavelengths = config.optical.wdm.num_wavelengths;
  const core::WrhtBuild build = core::build_wrht(64, wp);
  const double direct =
      core::run_on_optical(build.annotated, config.optical, payload)
          .total.value();
  EXPECT_NEAR(via_harness, direct, direct * 1e-12);
}

}  // namespace
}  // namespace wrht
