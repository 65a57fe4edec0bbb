// Quickstart: build a Wrht all-reduce schedule, prove it correct, and time
// it against the optical ring baseline — the whole library in ~60 lines.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "coll/algorithms.hpp"
#include "coll/oracle.hpp"
#include "harness/fig2.hpp"
#include "wrht/analysis.hpp"
#include "wrht/builder.hpp"
#include "wrht/executor.hpp"

int main() {
  using namespace wrht;

  // A 64-GPU optical ring with 8 usable wavelengths per waveguide.
  const std::uint32_t num_nodes = 64;
  core::WrhtParams params;
  params.num_wavelengths = 8;

  // 1. Build the schedule (the paper's hierarchical tree + all-to-all).
  const core::WrhtBuild build = core::build_wrht(num_nodes, params);
  std::fputs(core::analyze(build, util::megabytes(100)).report().c_str(),
             stdout);

  // 2. Prove it computes an all-reduce: execute it on real payload vectors
  //    and compare every node's result against the element-wise sum.
  const bool correct = coll::Oracle::verify_allreduce(
      build.annotated.schedule, /*payload_len=*/256).ok;
  std::printf("functional check      : %s\n", correct ? "PASS" : "FAIL");

  // 3. Time it on the optical ring simulator against the single-wavelength
  //    ring all-reduce (what you would run if you ported NCCL's ring as-is).
  optical::OpticalParams optical;
  optical.wdm.num_wavelengths = 8;
  const util::Bytes gradient = util::megabytes(100);
  const double wrht_time =
      core::run_on_optical(build.annotated, optical, gradient).total.value();

  harness::ExperimentConfig config;
  config.optical = optical;
  const double ring_time =
      harness::allreduce_time(harness::Algo::kORing, num_nodes, gradient,
                              config)
          .value();

  std::printf("wrht                  : %s\n",
              util::to_string(util::Seconds(wrht_time)).c_str());
  std::printf("optical ring baseline : %s\n",
              util::to_string(util::Seconds(ring_time)).c_str());
  std::printf("speedup               : %.2fx\n", ring_time / wrht_time);
  return correct ? 0 : 1;
}
