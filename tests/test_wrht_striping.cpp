#include "wrht/striping.hpp"

#include <gtest/gtest.h>

#include "coll/oracle.hpp"
#include "optical/spectrum.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"
#include "wrht/pipeline.hpp"
#include "wrht/time_model.hpp"

namespace wrht::core {
namespace {

using util::Bytes;

WrhtParams wrht_params(std::uint32_t w) {
  WrhtParams params;
  params.num_wavelengths = w;
  return params;
}

optical::OpticalParams optical_params(std::uint32_t w) {
  optical::OpticalParams p;
  p.wdm.num_wavelengths = w;
  return p;
}

TEST(Striping, PreservesFunctionalSchedule) {
  const WrhtBuild build = build_wrht(64, wrht_params(16));
  const AnnotatedSchedule striped =
      apply_striping(build.annotated, 16, Bytes(1'000'000));
  // Striping only touches wavelength sets, never the transfers.
  EXPECT_TRUE(coll::Oracle::verify_allreduce(striped.schedule, 16).ok);
  ASSERT_EQ(striped.paths.size(), build.annotated.paths.size());
  for (std::size_t s = 0; s < striped.paths.size(); ++s) {
    ASSERT_EQ(striped.paths[s].size(), build.annotated.paths[s].size());
  }
}

TEST(Striping, StaysConflictFree) {
  const WrhtBuild build = build_wrht(50, wrht_params(8));
  const AnnotatedSchedule striped =
      apply_striping(build.annotated, 8, Bytes(1'000'000));
  const topo::RingTopology ring(50);
  for (const auto& step : striped.paths) {
    optical::SpectrumMap spectrum(ring, 8);
    for (const PathAssignment& path : step) {
      for (const optical::WavelengthId lambda : path.lambdas) {
        ASSERT_TRUE(spectrum.is_free(path.arc, lambda));
        spectrum.reserve(path.arc, lambda);
      }
    }
  }
}

TEST(Striping, RespectsWavelengthBudget) {
  const WrhtBuild build = build_wrht(64, wrht_params(8));
  const AnnotatedSchedule striped =
      apply_striping(build.annotated, 8, Bytes(1'000'000));
  EXPECT_LE(striped.wavelengths_required, 8u);
}

TEST(Striping, GrantsIdleWavelengths) {
  // A Wrht tree step leaves the far spans of each group underused; striping
  // must find at least some extra capacity.
  const WrhtBuild build = build_wrht(64, wrht_params(16));
  StripingStats stats;
  const AnnotatedSchedule striped =
      apply_striping(build.annotated, 16, Bytes(1'000'000), &stats);
  EXPECT_GT(stats.extra_lambdas_granted, 0u);
  EXPECT_GT(stats.max_stripes_on_one_transfer, 1u);
  (void)striped;
}

TEST(Striping, NeverSlowerSometimesFaster) {
  const Bytes payload(100'000'000);
  for (const std::uint32_t n : {32u, 64u, 128u}) {
    const std::uint32_t w = 16;
    const WrhtBuild build = build_wrht(n, wrht_params(w));
    const optical::OpticalParams p = optical_params(w);
    const double base =
        analytic_schedule_time(build.annotated, payload, p).value();
    const AnnotatedSchedule striped =
        apply_striping(build.annotated, w, payload);
    const double after = analytic_schedule_time(striped, payload, p).value();
    EXPECT_LE(after, base * (1.0 + 1e-12)) << "n=" << n;
  }
}

TEST(Striping, SpeedsUpUnbalancedStep) {
  // Hand-built step: one long transfer, lots of idle spectrum.  Striping
  // should cut its serialization roughly by the stripe count.
  const std::uint32_t n = 16;
  const topo::RingTopology ring(n);
  coll::Schedule schedule("one", n, 1);
  schedule.add_step();
  schedule.add_transfer({0, 4, 0, coll::TransferOp::kReduce});
  AnnotatedSchedule annotated{
      std::move(schedule),
      {{PathAssignment{ring.arc(0, 4, topo::Direction::kClockwise), {0}}}},
      1,
      {1}};
  const AnnotatedSchedule striped =
      apply_striping(annotated, 8, Bytes(8'000'000));
  ASSERT_EQ(striped.paths[0][0].lambdas.size(), 8u);
  const optical::OpticalParams p = optical_params(8);
  const double base =
      analytic_schedule_time(annotated, Bytes(8'000'000), p).value();
  const double after =
      analytic_schedule_time(striped, Bytes(8'000'000), p).value();
  // Serialization shrinks 8x; overheads stay.
  EXPECT_LT(after, base);
  const double data_base = 8e6 / p.wdm.wavelength_bandwidth.bytes_per_second();
  EXPECT_NEAR(base - after, data_base * 7.0 / 8.0, 1e-9);
}

TEST(Striping, ComposesWithPipeline) {
  // The two extensions are orthogonal: striping an already-pipelined
  // schedule must stay correct, conflict-free, and not slower.
  const std::uint32_t w = 32;
  WrhtPipelineParams pp;
  pp.num_wavelengths = w;
  pp.num_segments = 4;
  const WrhtPipelineBuild pipelined = build_wrht_pipelined(64, pp);
  const util::Bytes payload(400'000'000);
  const AnnotatedSchedule both =
      apply_striping(pipelined.annotated, w, payload);

  EXPECT_TRUE(coll::Oracle::verify_allreduce(both.schedule, 32).ok);
  EXPECT_LE(both.wavelengths_required, w);

  const optical::OpticalParams p = optical_params(w);
  const double before =
      analytic_schedule_time(pipelined.annotated, payload, p).value();
  const double after = analytic_schedule_time(both, payload, p).value();
  EXPECT_LE(after, before * (1.0 + 1e-12));
}

TEST(Striping, DesAcceptsStripedSchedule) {
  const std::uint32_t w = 8;
  const WrhtBuild build = build_wrht(40, wrht_params(w));
  const AnnotatedSchedule striped =
      apply_striping(build.annotated, w, Bytes(10'000'000));
  const optical::RunResult run =
      run_on_optical(striped, optical_params(w), Bytes(10'000'000));
  EXPECT_GT(run.total.value(), 0.0);
  const double analytic =
      analytic_schedule_time(striped, Bytes(10'000'000), optical_params(w))
          .value();
  EXPECT_NEAR(run.total.value(), analytic, analytic * 1e-12);
}

}  // namespace
}  // namespace wrht::core
